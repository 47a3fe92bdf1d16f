package sim

import "fmt"

// SCALECOVER: large-n cover scaling on the compact hot-state layout.
//
// The Theorem 1 / Corollary 4 experiments stop at n ≤ 1600·scale; this
// workload pushes the E-process an order of magnitude further up the n
// axis — the regime of the derandomized load-balancing applications of
// expander walks (Tang–Subramanian, PAPERS.md), where cover times ≈ m
// stream the whole edge set through cache repeatedly. There the walk
// engine's footprint is the experiment: each point's row therefore
// reports the resident hot-state bytes (CSR adjacency + pending arena
// + offset/end tables + visited and cover bitsets) of the packed
// 32-bit Half layout next to what the former 16-byte-Half/[]bool
// layout would occupy, alongside the cover times that demonstrate the
// O(n) vertex-cover scaling surviving past L2.

func init() {
	register(Experiment{Name: "scalecover", Salt: saltSCALECOVER,
		Desc: "Large-n E-process cover scaling + hot-state footprint",
		Plan: adapt(scaleCoverPlan)})
}

// ScaleCoverRow is one n-point of the SCALECOVER experiment.
type ScaleCoverRow struct {
	N           int
	M           int
	VertexCover float64 // mean E-process vertex cover steps
	PerN        float64 // VertexCover / n — Corollary 2 says O(1)
	EdgeCover   float64 // mean E-process edge cover steps
	PerM        float64 // EdgeCover / m
	HotKiB      float64 // walk hot state, packed 32-bit layout
	LegacyKiB   float64 // same state in the 16-byte-Half / []bool layout
	Shrink      float64 // LegacyKiB / HotKiB
}

// hotStateBytes returns the resident bytes of one E-process cover
// trial's hot state under the packed layout and under the former
// 64-bit-field layout: two copies of the 2m halves (graph CSR +
// pending arena), the int32 offset/end tables, the edge-visited set
// and the cover driver's vertex+edge seen sets ([]bool before, one bit
// per element now).
func hotStateBytes(n, m int) (packed, legacy int64) {
	halves := int64(2 * m)
	words := func(k int) int64 { return int64((k + 63) / 64 * 8) }
	packed = halves*8*2 + // 8-byte Half: CSR + arena
		int64(n+1)*4 + int64(n)*4 + // offsets + arena end cursors
		words(m) + // EProcess visited bitset
		words(n) + words(m) // CoverScratch seen bitsets
	legacy = halves*16*2 + // 16-byte Half: CSR + arena
		int64(n+1)*4 + int64(n)*4 +
		int64(m) + // visited []bool
		int64(n) + int64(m) // seen []bool pair
	return packed, legacy
}

func scaleCoverPlan(cfg ExpConfig) (*SweepPlan, func([]PointResult) ([]ScaleCoverRow, *Table, error)) {
	deg := 4
	base := []int{2000, 5000, 10000, 20000}
	plan := &SweepPlan{Config: cfg.config()}
	var ns []int
	for _, b := range base {
		n := b * cfg.Scale
		ns = append(ns, n)
		plan.Points = append(plan.Points, PointSpec{
			Key:   fmt.Sprintf("scalecover n=%d", n),
			Salt:  Salt(saltSCALECOVER, uint64(n)),
			Graph: regularPointGraph(n, deg),
			Arms:  []Arm{eprocessArm("eprocess")},
		})
	}
	finish := func(points []PointResult) ([]ScaleCoverRow, *Table, error) {
		var rows []ScaleCoverRow
		for i, pt := range points {
			n := ns[i]
			m := n * deg / 2
			res := pt.Arms[0]
			packed, legacy := hotStateBytes(n, m)
			row := ScaleCoverRow{
				N:           n,
				M:           m,
				VertexCover: res.VertexStats.Mean,
				PerN:        res.VertexStats.Mean / float64(n),
				EdgeCover:   res.EdgeStats.Mean,
				PerM:        res.EdgeStats.Mean / float64(m),
				HotKiB:      float64(packed) / 1024,
				LegacyKiB:   float64(legacy) / 1024,
			}
			row.Shrink = row.LegacyKiB / row.HotKiB
			rows = append(rows, row)
		}
		t := NewTable("SCALECOVER: large-n E-process cover + hot-state footprint (4-regular)",
			"n", "m", "C_V(E)", "C_V/n", "C_E(E)", "C_E/m", "hot KiB", "64-bit KiB", "shrink")
		for _, r := range rows {
			t.AddRow(r.N, r.M, r.VertexCover, r.PerN, r.EdgeCover, r.PerM, r.HotKiB, r.LegacyKiB, r.Shrink)
		}
		return rows, t, nil
	}
	return plan, finish
}
