package anet

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/words"
)

// symDiffSize returns |a Δ b|, the measure the neighbour bound of
// Definition 6.1 is stated in.
func symDiffSize(a, b words.ColumnSet) int {
	return bits.OnesCount64(a.Mask() ^ b.Mask())
}

func TestNewNetValidation(t *testing.T) {
	for _, tc := range []struct {
		d     int
		alpha float64
	}{{0, 0.2}, {5, 0}, {5, 0.5}, {5, -0.1}, {5, 0.7}} {
		if _, err := NewNet(tc.d, tc.alpha); err == nil {
			t.Fatalf("NewNet(%d, %v) must error", tc.d, tc.alpha)
		}
	}
}

func TestNetBoundaries(t *testing.T) {
	// d=12, alpha=0.25: low = floor(6-3) = 3, high = ceil(6+3) = 9.
	n, err := NewNet(12, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if n.Low() != 3 || n.High() != 9 {
		t.Fatalf("low=%d high=%d", n.Low(), n.High())
	}
	for _, tc := range []struct {
		size int
		want bool
	}{{0, true}, {3, true}, {4, false}, {6, false}, {8, false}, {9, true}, {12, true}} {
		if got := n.ContainsSize(tc.size); got != tc.want {
			t.Errorf("ContainsSize(%d) = %v, want %v", tc.size, got, tc.want)
		}
	}
}

// TestNeighborProperties is the core Definition 6.1 invariant: the
// neighbour is a net member at symmetric difference at most ⌈αd⌉.
func TestNeighborProperties(t *testing.T) {
	f := func(seed uint64, dRaw, aRaw uint8) bool {
		d := 4 + int(dRaw%20)
		alpha := 0.05 + float64(aRaw%40)/100.0 // 0.05 .. 0.44
		n, err := NewNet(d, alpha)
		if err != nil {
			return false
		}
		src := rng.New(seed)
		size := src.Intn(d + 1)
		c := words.MustColumnSet(d, src.Subset(d, size)...)
		nb, dist := n.Neighbor(c)
		if !n.Contains(nb) {
			return false
		}
		if symDiffSize(c, nb) != dist {
			return false
		}
		ceilAD := int(math.Ceil(alpha * float64(d)))
		if dist > ceilAD {
			return false
		}
		if n.Contains(c) {
			return dist == 0 && nb.Equal(c)
		}
		return dist > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborDeterministic(t *testing.T) {
	n, _ := NewNet(10, 0.3)
	c := words.MustColumnSet(10, 1, 3, 5, 7)
	a, _ := n.Neighbor(c)
	b, _ := n.Neighbor(c)
	if !a.Equal(b) {
		t.Fatal("neighbour must be deterministic")
	}
	// Shrinking drops the largest columns.
	if a.Contains(7) && a.Len() < c.Len() {
		t.Fatalf("shrink should drop largest columns first: %v", a)
	}
}

func TestSizeExactMatchesEnumeration(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.25, 0.4} {
		n, _ := NewNet(10, alpha)
		count := 0
		if err := n.EnumerateMasks(func(uint64) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if n.SizeExact().Cmp(big.NewInt(int64(count))) != 0 {
			t.Fatalf("alpha=%v: SizeExact %v != enumerated %d", alpha, n.SizeExact(), count)
		}
		mc, err := n.MemberCount()
		if err != nil || mc != count {
			t.Fatalf("MemberCount %d, %v", mc, err)
		}
	}
}

// TestLemma62Bound: |N| <= 2^{H(1/2-alpha)d + 1}.
func TestLemma62Bound(t *testing.T) {
	f := func(dRaw, aRaw uint8) bool {
		d := 2 + int(dRaw%28)
		alpha := 0.02 + float64(aRaw%46)/100.0
		n, err := NewNet(d, alpha)
		if err != nil {
			return false
		}
		sf := new(big.Float).SetInt(n.SizeExact())
		sv, _ := sf.Float64()
		return math.Log2(sv) <= n.LogSizeBound()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeSpaceShrinksWithAlpha(t *testing.T) {
	prev := 1.1
	for _, alpha := range []float64{0.05, 0.15, 0.25, 0.35, 0.45} {
		n, _ := NewNet(20, alpha)
		rs := n.RelativeSpace()
		if rs <= 0 || rs > 1 {
			t.Fatalf("relative space %v out of range", rs)
		}
		if rs >= prev {
			t.Fatalf("relative space must shrink as alpha grows: %v >= %v", rs, prev)
		}
		prev = rs
	}
}

func TestDistortionValues(t *testing.T) {
	cases := []struct {
		p    float64
		dist int
		want float64
	}{
		{0, 3, 8},    // F0: 2^dist
		{1, 5, 1},    // F1: no distortion
		{2, 3, 8},    // p>1: 2^{dist(p-1)}
		{1.5, 4, 4},  // 2^{4*0.5}
		{0.5, 4, 4},  // p<1: 2^{dist(1-p)}
		{0.75, 8, 4}, // 2^{8*0.25}
		{2, 0, 1},
	}
	for _, c := range cases {
		if got := Distortion(c.p, c.dist); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Distortion(%v, %d) = %v, want %v", c.p, c.dist, got, c.want)
		}
	}
}

func TestDistortionApproaches1NearP1(t *testing.T) {
	// The paper notes distortion → 1 as p → 1 from either side.
	for _, p := range []float64{0.9, 0.99, 1.01, 1.1} {
		d1 := Distortion(p, 5)
		if d1 < 1 {
			t.Fatalf("distortion below 1 at p=%v", p)
		}
		closer := Distortion(1+(p-1)/10, 5)
		if closer > d1 {
			t.Fatalf("distortion must shrink toward p=1: %v > %v", closer, d1)
		}
	}
}

func TestDistortionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Distortion(2, -1)
}

func TestNeighborModeDirections(t *testing.T) {
	n, _ := NewNet(12, 0.25)                    // band (3, 9)
	c := words.MustColumnSet(12, 0, 1, 2, 3, 4) // size 5
	down, dd := n.NeighborMode(c, RoundDown)
	up, du := n.NeighborMode(c, RoundUp)
	near, dn := n.NeighborMode(c, RoundNearest)
	if down.Len() != 3 || dd != 2 {
		t.Fatalf("down: %v dist %d", down, dd)
	}
	if up.Len() != 9 || du != 4 {
		t.Fatalf("up: %v dist %d", up, du)
	}
	// Size 5 is nearer the lower boundary: nearest == down.
	if !near.Equal(down) || dn != dd {
		t.Fatalf("nearest: %v dist %d", near, dn)
	}
	// Down keeps a subset of C; up keeps a superset.
	if down.Mask()&^c.Mask() != 0 {
		t.Fatal("shrink must produce a subset")
	}
	if c.Mask()&^up.Mask() != 0 {
		t.Fatal("grow must produce a superset")
	}
	// Members are fixed points in every mode.
	member := words.MustColumnSet(12, 0, 1)
	for _, mode := range []RoundingMode{RoundNearest, RoundDown, RoundUp} {
		nb, dist := n.NeighborMode(member, mode)
		if dist != 0 || !nb.Equal(member) {
			t.Fatalf("mode %v moved a member", mode)
		}
	}
}

func TestNeighborModeAllModesLandInNet(t *testing.T) {
	f := func(seed uint64, dRaw, aRaw, mRaw uint8) bool {
		d := 4 + int(dRaw%16)
		alpha := 0.05 + float64(aRaw%40)/100.0
		mode := RoundingMode(mRaw % 3)
		n, err := NewNet(d, alpha)
		if err != nil {
			return false
		}
		src := rng.New(seed)
		c := words.MustColumnSet(d, src.Subset(d, src.Intn(d+1))...)
		nb, dist := n.NeighborMode(c, mode)
		return n.Contains(nb) && symDiffSize(c, nb) == dist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundingModeString(t *testing.T) {
	if RoundNearest.String() != "nearest" || RoundDown.String() != "down" || RoundUp.String() != "up" {
		t.Fatal("mode names")
	}
}

func TestDistortionQ(t *testing.T) {
	// Binary reduces to Distortion.
	if DistortionQ(0, 3, 2) != Distortion(0, 3) {
		t.Fatal("q=2 must match binary")
	}
	// Q-ary F0: q^dist.
	if got := DistortionQ(0, 2, 5); math.Abs(got-25) > 1e-9 {
		t.Fatalf("DistortionQ(0,2,5) = %v, want 25", got)
	}
	// p=1 is always distortion-free.
	if DistortionQ(1, 7, 9) != 1 {
		t.Fatal("p=1 must be 1")
	}
	// p=2 over [4]: 4^{dist}.
	if got := DistortionQ(2, 3, 4); math.Abs(got-64) > 1e-9 {
		t.Fatalf("DistortionQ(2,3,4) = %v, want 64", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("q < 2 must panic")
		}
	}()
	DistortionQ(0, 1, 1)
}

func TestEnumerateMasksAscending(t *testing.T) {
	n, _ := NewNet(8, 0.25)
	prev := int64(-1)
	if err := n.EnumerateMasks(func(m uint64) bool {
		if int64(m) <= prev {
			t.Fatalf("masks not ascending: %d after %d", m, prev)
		}
		prev = int64(m)
		return true
	}); err != nil {
		t.Fatal(err)
	}
}
