package core

import (
	"errors"
	"fmt"

	"repro/internal/words"
)

// ErrInvalidParam is the sentinel wrapped by every construction-time
// parameter rejection; match with errors.Is.
var ErrInvalidParam = errors.New("core: invalid parameter")

// ErrIncompatibleMerge is the sentinel wrapped when two summaries
// cannot be merged — different kinds, shapes, sizes, or seeds.
var ErrIncompatibleMerge = errors.New("core: incompatible summaries")

// ErrBadEncoding is the sentinel wrapped by every decode-time
// rejection of a malformed summary blob: bad magic, unsupported
// version, truncation, trailing bytes, or payloads whose internal
// structure contradicts their header. Degenerate shape parameters in
// an otherwise well-formed envelope wrap ErrInvalidParam instead, so
// decode failures land in the same error taxonomy construction already
// uses.
var ErrBadEncoding = errors.New("core: malformed summary encoding")

// ParamError reports a rejected construction parameter: which summary
// kind refused it, which parameter, the offending value, and why. It
// unwraps to ErrInvalidParam.
type ParamError struct {
	Summary string // summary kind, e.g. "sample", "net"
	Param   string // parameter name, e.g. "d", "eps"
	Value   interface{}
	Reason  string
}

// Error renders the rejection.
func (e *ParamError) Error() string {
	return fmt.Sprintf("core: %s summary: %s=%v %s", e.Summary, e.Param, e.Value, e.Reason)
}

// Unwrap ties ParamError to the ErrInvalidParam sentinel.
func (e *ParamError) Unwrap() error { return ErrInvalidParam }

func badParam(summary, param string, value interface{}, reason string) error {
	return &ParamError{Summary: summary, Param: param, Value: value, Reason: reason}
}

// validateShape checks the dimensions shared by every summary
// constructor: d columns over alphabet [q].
func validateShape(summary string, d, q int) error {
	if d < 1 {
		return badParam(summary, "d", d, "must be positive")
	}
	if q < 2 {
		return badParam(summary, "q", q, "must be at least 2")
	}
	return nil
}

// validateRowShape is validateShape for a constructor: the summary
// keeps or ingests its rows packed (words.Packing), so q must also be
// an alphabet a packed layout holds.
func validateRowShape(summary string, d, q int) error {
	if err := validateShape(summary, d, q); err != nil {
		return err
	}
	if q > words.MaxAlphabet {
		return badParam(summary, "q", q, "exceeds words.MaxAlphabet")
	}
	return nil
}

// maxSketchRetention bounds the per-sketch size any accuracy
// parameter may demand (KMV retention ≈ 1/ε², the KHLL value count an
// earlier registered blob declares). It is enforced at construction,
// so every constructible summary decodes, and at decode, so a crafted
// blob cannot make the decoder allocate beyond it.
const maxSketchRetention = 1 << 26

// validateEpsRetention rejects accuracy parameters so small that the
// sketches they size would exceed maxSketchRetention — including the
// denormal-ε corner where 1/ε² overflows every integer type.
func validateEpsRetention(summary string, eps float64) error {
	if r := 1 / (eps * eps); !(r <= maxSketchRetention) {
		return badParam(summary, "eps", eps,
			fmt.Sprintf("demands sketches beyond the retention limit %d", maxSketchRetention))
	}
	return nil
}

// validateErrorParams checks an (ε, δ) accuracy pair.
func validateErrorParams(summary string, eps, delta float64) error {
	if !(eps > 0 && eps < 1) {
		return badParam(summary, "eps", eps, "outside (0,1)")
	}
	if !(delta > 0 && delta < 1) {
		return badParam(summary, "delta", delta, "outside (0,1)")
	}
	return nil
}

func mergeErr(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrIncompatibleMerge, fmt.Sprintf(format, args...))
}

// mergeWrap keeps the underlying error's chain (e.g. the sketch
// layer's ErrIncompatible) alongside the ErrIncompatibleMerge
// sentinel.
func mergeWrap(err error) error {
	return fmt.Errorf("%w: %w", ErrIncompatibleMerge, err)
}

var errSelfMerge = fmt.Errorf("%w: summary merged with itself", ErrIncompatibleMerge)

var errEmptyData = errors.New("core: no rows observed")

func errNegativeP(p float64) error {
	return fmt.Errorf("core: moment order p=%v must be non-negative", p)
}

func errNonPositiveP(p float64) error {
	return fmt.Errorf("core: norm order p=%v must be positive", p)
}

func errBadPhi(phi float64) error {
	return fmt.Errorf("core: phi=%v outside (0, 1]", phi)
}
