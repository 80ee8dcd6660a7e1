package core

import (
	"fmt"
	"reflect"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

func TestShardPlan(t *testing.T) {
	for _, tc := range []struct {
		n, shard, want int
	}{
		{0, 0, 1}, {100, 0, 1}, {100, 200, 1}, {100, 100, 1},
		{101, 100, 2}, {1000, 256, 4}, {1024, 256, 4},
	} {
		plan := ShardPlan(tc.n, tc.shard)
		if len(plan) != tc.want {
			t.Fatalf("ShardPlan(%d,%d) = %d shards, want %d", tc.n, tc.shard, len(plan), tc.want)
		}
		// The plan must tile [0, n) exactly: ascending, adjacent, disjoint.
		at := 0
		for _, s := range plan {
			if s[0] != at || s[1] < s[0] {
				t.Fatalf("ShardPlan(%d,%d) = %v: not a tiling", tc.n, tc.shard, plan)
			}
			at = s[1]
		}
		if at != tc.n {
			t.Fatalf("ShardPlan(%d,%d) = %v: does not cover [0,%d)", tc.n, tc.shard, plan, tc.n)
		}
	}
	if d := New(nil, WithShardBytes(7)); d.ShardBytes() != minShardBytes {
		t.Fatalf("WithShardBytes(7) not clamped to floor: %d", d.ShardBytes())
	}
	if d := New(nil, WithShardBytes(0)); d.ShardBytes() != 0 {
		t.Fatalf("WithShardBytes(0) should keep the one-shard plan")
	}
}

// requireSameDetail compares two section runs across every output the
// pipeline produces — classification bytes, instruction starts, function
// starts, jump tables, hint count, outcome counters and tier partition.
func requireSameDetail(tb testing.TB, label string, want, got *Detail) {
	tb.Helper()
	wr, gr := want.Result, got.Result
	if len(wr.IsCode) != len(gr.IsCode) {
		tb.Fatalf("%s: result length %d vs %d", label, len(wr.IsCode), len(gr.IsCode))
	}
	for off := range wr.IsCode {
		if wr.IsCode[off] != gr.IsCode[off] {
			tb.Fatalf("%s: IsCode diverges at +%#x (want %v)", label, off, wr.IsCode[off])
		}
		if wr.InstStart[off] != gr.InstStart[off] {
			tb.Fatalf("%s: InstStart diverges at +%#x (want %v)", label, off, wr.InstStart[off])
		}
	}
	if !reflect.DeepEqual(wr.FuncStarts, gr.FuncStarts) {
		tb.Fatalf("%s: FuncStarts %v vs %v", label, wr.FuncStarts, gr.FuncStarts)
	}
	if !reflect.DeepEqual(want.Viable, got.Viable) {
		tb.Fatalf("%s: viability masks diverge", label)
	}
	if !reflect.DeepEqual(want.Tables, got.Tables) && !(len(want.Tables) == 0 && len(got.Tables) == 0) {
		tb.Fatalf("%s: jump tables diverge: %v vs %v", label, want.Tables, got.Tables)
	}
	if want.Hints != got.Hints {
		tb.Fatalf("%s: hint counts %d vs %d", label, want.Hints, got.Hints)
	}
	wo, go_ := want.Outcome, got.Outcome
	if wo.Committed != go_.Committed || wo.Rejected != go_.Rejected || wo.Retracted != go_.Retracted {
		tb.Fatalf("%s: outcome counters (%d,%d,%d) vs (%d,%d,%d)", label,
			wo.Committed, wo.Rejected, wo.Retracted, go_.Committed, go_.Rejected, go_.Retracted)
	}
	switch {
	case want.Tier == nil && got.Tier == nil:
	case want.Tier == nil || got.Tier == nil:
		tb.Fatalf("%s: tier partition presence diverges", label)
	case !reflect.DeepEqual(want.Tier.Windows, got.Tier.Windows):
		tb.Fatalf("%s: tier windows diverge", label)
	}
}

func shardTestBins(tb testing.TB) []*synth.Binary {
	tb.Helper()
	var bins []*synth.Binary
	for _, cfg := range []synth.Config{
		{Seed: 61, Profile: synth.ProfileO2, NumFuncs: 16},
		{Seed: 62, Profile: synth.ProfileAdversarial, NumFuncs: 16},
		{Seed: 63, Profile: synth.ProfileAdvOverlap, NumFuncs: 12},
		{Seed: 64, Profile: synth.ProfileAdvObf, NumFuncs: 12},
	} {
		bin, err := synth.Generate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		bins = append(bins, bin)
	}
	return bins
}

// TestShardedMatchesUnsharded is the core exactness claim: for every
// profile and a spread of shard sizes (including a deliberately odd one
// so seams land unaligned), the sharded run's full Detail is
// byte-identical to the unsharded reference.
func TestShardedMatchesUnsharded(t *testing.T) {
	ref := New(DefaultModel())
	for bi, bin := range shardTestBins(t) {
		entry := int(bin.Entry - bin.Base)
		want := ref.DisassembleSection(bin.Code, bin.Base, entry, nil)
		for _, shard := range []int{311, 1024, 4096} {
			d := ref.Clone(WithShardBytes(shard))
			got := d.DisassembleSection(bin.Code, bin.Base, entry, nil)
			requireSameDetail(t, fmt.Sprintf("bin %d shard %d", bi, shard), want, got)
			if len(bin.Code) > shard && !got.Graph.Lazy() {
				t.Fatalf("bin %d shard %d: sharded run should use the windowed graph", bi, shard)
			}
		}
	}
}

// TestShardedMatchesUnshardedAblations covers the non-default paths the
// scheduler special-cases, on multi-shard plans against the one-shard
// plan: no tiering (full score buffer), no stats, flat priorities, float
// runs.
func TestShardedMatchesUnshardedAblations(t *testing.T) {
	bin := shardTestBins(t)[1]
	entry := int(bin.Entry - bin.Base)
	for _, opts := range [][]Option{
		{WithoutTiering()},
		{WithoutStats()},
		{WithoutPrioritization()},
		{WithFloatRuns()},
		{WithoutJumpTables()},
	} {
		ref := New(DefaultModel(), opts...)
		want := ref.DisassembleSection(bin.Code, bin.Base, entry, nil)
		got := ref.Clone(WithShardBytes(777)).DisassembleSection(bin.Code, bin.Base, entry, nil)
		requireSameDetail(t, fmt.Sprintf("ablation %T", opts), want, got)
	}
}

// TestShardedHintStreamIdentical pins the merge rule at its strongest:
// the collector's merged stream over a k-shard plan equals its stream
// over the one-shard plan element for element (not just as a sorted
// multiset), so the corrector provably consumes the same sequence. The
// one-shard stream is what every unsharded section runs.
func TestShardedHintStreamIdentical(t *testing.T) {
	d := New(DefaultModel())
	for bi, bin := range shardTestBins(t) {
		g := superset.Build(bin.Code, bin.Base)
		viable, err := analysis.ViabilityRanges(nil, g, ShardPlan(g.Len(), 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		entry := int(bin.Entry - bin.Base)
		scores := make([]float64, g.Len())
		d.model.ScoreAllInto(scores, g, d.window)
		want, wantTables := d.collectShardHints(nil, g, viable, entry, scores, ShardPlan(g.Len(), 0), nil, newWorkPool(1))
		for _, shard := range []int{311, 2048} {
			plan := ShardPlan(g.Len(), shard)
			got, gotTables := d.collectShardHints(nil, g, viable, entry, scores, plan, nil, newWorkPool(1))
			if !reflect.DeepEqual(want, got) {
				for i := range want {
					if i >= len(got) || want[i] != got[i] {
						t.Fatalf("bin %d shard %d: hint stream diverges at %d: %+v vs %+v",
							bi, shard, i, want[i], got[min(i, len(got)-1)])
					}
				}
				t.Fatalf("bin %d shard %d: hint stream lengths %d vs %d", bi, shard, len(want), len(got))
			}
			if !reflect.DeepEqual(wantTables, gotTables) && !(len(wantTables) == 0 && len(gotTables) == 0) {
				t.Fatalf("bin %d shard %d: tables diverge", bi, shard)
			}
		}
	}
}

// TestShardedDeterministicAcrossWorkers extends the parallel_test.go
// guarantee to shard scheduling: N-shard runs must be byte-identical
// run-to-run and across worker counts (the -race pass of make verify
// doubles as the scheduler's data-race proof).
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	bin := shardTestBins(t)[1]
	entry := int(bin.Entry - bin.Base)
	ref := New(DefaultModel(), WithShardBytes(777), WithWorkers(1))
	want := ref.DisassembleSection(bin.Code, bin.Base, entry, nil)
	for _, workers := range []int{1, 4, 8} {
		d := New(DefaultModel(), WithShardBytes(777), WithWorkers(workers))
		for rep := 0; rep < 2; rep++ {
			got := d.DisassembleSection(bin.Code, bin.Base, entry, nil)
			requireSameDetail(t, fmt.Sprintf("workers=%d rep=%d", workers, rep), want, got)
		}
	}
}

// TestShardedELFMatchesUnsharded drives the whole-image path: the
// request-scoped pool fans shard tasks out across sections, and the
// result must equal the unsharded parallel run section for section.
func TestShardedELFMatchesUnsharded(t *testing.T) {
	img := buildMultiSectionELF(t, 4, 10)
	ref := New(DefaultModel(), WithWorkers(4))
	want, err := ref.DisassembleELFDetail(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ref.Clone(WithShardBytes(1024)).DisassembleELFDetail(img)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSections(t, "sharded ELF", want, got)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestShardedResidencyBounded is the O(shard) residency claim as a
// regression test: on a section ~18x the shard size, the windowed graph
// must end the run with no more resident blocks than maxResidentBlocks
// allows — a fixed function of shard size and worker count, not section
// size — which keeps the resident Info side table well under the eager
// backend's 16 bytes per section byte. It also bounds block faults to a
// small multiple of the block count: the scan phases re-fault blocks a
// handful of times as the clock hand cycles, and every scattered access
// after them is served by point reads (PointReads > 0), not refaults —
// the regression that once made this configuration ~70x slower.
func TestShardedResidencyBounded(t *testing.T) {
	base := uint64(0x401000)
	addr := base
	var code []byte
	for seed := int64(7100); len(code) < 1<<20; seed++ {
		bin, err := synth.Generate(synth.Config{
			Seed:     seed,
			Profile:  synth.DefaultProfiles[int(seed)%len(synth.DefaultProfiles)],
			NumFuncs: 300,
			Base:     addr,
		})
		if err != nil {
			t.Fatal(err)
		}
		code = append(code, bin.Code...)
		addr += uint64(len(bin.Code))
	}

	d := New(DefaultModel(), WithWorkers(1), WithShardBytes(64<<10))
	det := d.DisassembleDetail(code, base, 0)
	if !det.Graph.Lazy() {
		t.Fatal("expected lazy graph on sharded run")
	}
	blocks, blockBytes := det.Graph.ResidentBlocks()
	if cap := d.maxResidentBlocks(); blocks > cap {
		t.Errorf("resident blocks = %d, want <= cap %d", blocks, cap)
	}
	totalBlocks := (len(code) + blockBytes - 1) / blockBytes
	if blocks >= totalBlocks {
		t.Errorf("resident blocks = %d of %d: residency not bounded below section size", blocks, totalBlocks)
	}
	const infoBytes = 16 // sizeof(superset.Info)
	resident := float64(blocks*blockBytes*infoBytes) / float64(len(code))
	if resident > 8 {
		t.Errorf("resident Info bytes = %.1fx section, want well under eager 16x", resident)
	}
	faults, _ := det.Graph.LazyStats()
	if maxFaults := int64(20 * totalBlocks); faults > maxFaults {
		t.Errorf("block faults = %d, want <= %d (~20 per block): scattered phases must use point reads", faults, maxFaults)
	}
	if det.Graph.PointReads() == 0 {
		t.Error("expected point reads during the post-scan phases")
	}
}
