// Linkability: the paper's privacy scenario (Section 1, citing
// KHyperLogLog). Given a table of quasi-identifiers, how identifying
// is each column subset? The measure is projected F0: when the number
// of distinct value combinations approaches the number of records,
// records are re-identifiable through that subset.
//
// Because subsets are explored after the data is seen, exact answers
// for arbitrary subsets need exponential space (Section 4); this
// example uses the α-net summary (Theorem 6.5) and reports its
// guaranteed distortion alongside each estimate, with exact values
// for comparison.
package main

import (
	"fmt"
	"log"

	projfreq "repro"
	"repro/internal/hashing"
	"repro/internal/sketch"
	"repro/internal/words"
	"repro/internal/workload"
)

var cols = []string{"zip", "birth", "sex", "device", "plan"}

func main() {
	const seed = 11
	src, err := workload.Linkability(workload.LinkabilityConfig{
		N:    30000,
		Card: []int{40, 60, 2, 12, 4},
		// 10% of records carry near-unique quasi-identifier values.
		UniqueFraction: 0.10, CommonProfiles: 24, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	d, q := src.Dim(), src.Alphabet()

	exact, err := projfreq.NewExactSummary(d, q)
	if err != nil {
		log.Fatal(err)
	}
	net, err := projfreq.NewNetSummary(d, q, projfreq.NetConfig{
		Alpha: 0.21, Epsilon: 0.1, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for {
		w, ok := src.Next()
		if !ok {
			break
		}
		exact.Observe(w)
		net.Observe(w)
		n++
	}
	fmt.Printf("records: %d   net summary: %d sketches, %d bytes (raw: %d bytes)\n\n",
		n, net.NumSketches(), net.SizeBytes(), exact.SizeBytes())

	fmt.Println("identifier subset        est. distinct  exact  rounded  uniqueness  risk")
	fmt.Println("--------------------------------------------------------------------------")
	subsets := [][]int{
		{2},             // sex
		{2, 4},          // sex+plan
		{0, 2},          // zip+sex
		{0, 1},          // zip+birth
		{0, 1, 2},       // zip+birth+sex
		{0, 1, 2, 3},    // +device
		{0, 1, 2, 3, 4}, // everything
	}
	for _, sub := range subsets {
		c, err := projfreq.NewColumnSet(d, sub...)
		if err != nil {
			log.Fatal(err)
		}
		ans, err := net.F0Answer(c)
		if err != nil {
			log.Fatal(err)
		}
		truth, _ := exact.F0(c)
		// A query rounded down by dist columns may under-count by up
		// to the distortion bound; score risk on the upper end.
		worstCase := ans.Estimate * ans.Distortion
		uniq := worstCase / float64(n)
		risk := "low"
		switch {
		case uniq > 0.05:
			risk = "HIGH"
		case uniq > 0.01:
			risk = "medium"
		}
		fmt.Printf("%-24v %13.0f %6.0f %8d %10.4f  %s\n",
			label(sub), ans.Estimate, truth, ans.Distance, uniq, risk)
	}
	fmt.Println("\nuniqueness = upper bound (est × distortion) / records; \"rounded\" is the")
	fmt.Println("number of columns the α-net moved the query by (Lemma 6.4).")

	// When the audit subsets ARE known in advance — the KHyperLogLog
	// deployment the paper cites — each gets its own registered F0
	// sketch plus a KHLL (Chia et al.) for per-pattern uniqueness, in
	// space linear in the number of registered subsets.
	rows := exact.Table().Batch()
	var keys []byte
	var fps []uint64
	f0Bytes, khllBytes := 0, 0
	fmt.Println("\nregistered subsets (fixed up front)")
	fmt.Println("identifier subset        est. distinct  frac. patterns seen <= 2x")
	for _, sub := range subsets {
		c, err := projfreq.NewColumnSet(d, sub...)
		if err != nil {
			log.Fatal(err)
		}
		reg, err := projfreq.NewRegisteredSummary(d, q, c, projfreq.RegisteredConfig{Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		reg.ObserveBatch(rows)
		f0, err := reg.F0(c)
		if err != nil {
			log.Fatal(err)
		}
		// The KHLL counts, per projected pattern, the distinct rows
		// (ids) that carry it.
		keys = words.AppendBatchKeys(keys[:0], rows, c)
		fps = hashing.AppendFingerprints64(fps[:0], keys, rows.Len(), 2*c.Len())
		khll := sketch.NewKHLL(512, 8, seed)
		khll.AddBatch(fps, 0)
		f0Bytes += reg.SizeBytes()
		khllBytes += khll.SizeBytes()
		fmt.Printf("%-24v %13.0f %10.3f\n", c, f0, khll.HighlyIdentifying(2))
	}
	fmt.Printf("F0 sketches: %d bytes; KHLLs: %d bytes\n", f0Bytes, khllBytes)
}

func label(sub []int) string {
	s := ""
	for i, c := range sub {
		if i > 0 {
			s += "+"
		}
		s += cols[c]
	}
	return s
}
