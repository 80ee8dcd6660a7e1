package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
)

// rangeTestGraphs yields graphs covering the constructs whose hints can
// straddle shard seams: every adversarial synth profile plus raw byte
// soup (dense invalid decodes stress the viability fixpoint).
func rangeTestGraphs(t *testing.T) []*superset.Graph {
	t.Helper()
	var gs []*superset.Graph
	for _, cfg := range []synth.Config{
		{Seed: 41, Profile: synth.ProfileO2, NumFuncs: 12},
		{Seed: 42, Profile: synth.ProfileAdversarial, NumFuncs: 12},
		{Seed: 43, Profile: synth.ProfileAdvOverlap, NumFuncs: 8},
		{Seed: 44, Profile: synth.ProfileAdvObf, NumFuncs: 8},
	} {
		bin, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, superset.Build(bin.Code, bin.Base))
	}
	rng := rand.New(rand.NewSource(7))
	soup := make([]byte, 6000)
	rng.Read(soup)
	gs = append(gs, superset.Build(soup, 0x400000))
	return gs
}

// tile splits [0, n) into shards of the given size (last one short).
func tile(n, shard int) [][2]int {
	var out [][2]int
	for from := 0; from < n; from += shard {
		to := from + shard
		if to > n {
			to = n
		}
		out = append(out, [2]int{from, to})
	}
	if out == nil {
		out = [][2]int{{0, 0}}
	}
	return out
}

// TestViabilityRangesMatchesGlobal proves the sharded fixpoint lands on
// exactly the mask of the one-range plan — pure worklist propagation with
// no cascade sweep, an independent evaluation order — for shard sizes
// from absurdly small (every fallthrough crosses a seam) to just under
// the section.
func TestViabilityRangesMatchesGlobal(t *testing.T) {
	for gi, g := range rangeTestGraphs(t) {
		want := viability(g)
		for _, shard := range []int{64, 1000, 4096, g.Len() - 1} {
			got, err := ViabilityRanges(nil, g, tile(g.Len(), shard), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				for off := range want {
					if want[off] != got[off] {
						t.Fatalf("graph %d shard %d: viability diverges first at offset %d (want %v)",
							gi, shard, off, want[off])
					}
				}
			}
		}
	}
}

// TestRangeAnalysesMatchGlobal proves each per-shard hint analysis,
// concatenated over a shard tiling, reproduces its one-range output over
// the whole section element for element — the property the pipeline's
// exact hint merge rests on.
func TestRangeAnalysesMatchGlobal(t *testing.T) {
	for gi, g := range rangeTestGraphs(t) {
		viable := viability(g)
		for _, shard := range []int{128, 1000, 4096} {
			shards := tile(g.Len(), shard)

			var pro []Hint
			for _, s := range shards {
				pro = PrologueHintsRange(g, viable, s[0], s[1], pro)
			}
			if want := PrologueHintsRange(g, viable, 0, g.Len(), nil); !hintsEq(want, pro) {
				t.Fatalf("graph %d shard %d: prologue hints diverge", gi, shard)
			}

			var lit []Hint
			for _, s := range shards {
				lit = LiteralPoolHintsRange(g, viable, s[0], s[1], lit)
			}
			if want := LiteralPoolHintsRange(g, viable, 0, g.Len(), nil); !hintsEq(want, lit) {
				t.Fatalf("graph %d shard %d: literal-pool hints diverge", gi, shard)
			}

			var jts []JumpTable
			for _, s := range shards {
				jts = FindJumpTablesRange(g, viable, s[0], s[1], jts)
			}
			if want := FindJumpTablesRange(g, viable, 0, g.Len(), nil); !reflect.DeepEqual(want, jts) &&
				!(len(want) == 0 && len(jts) == 0) {
				t.Fatalf("graph %d shard %d: jump tables diverge (%d vs %d)",
					gi, shard, len(want), len(jts))
			}

			callers := make([]int32, g.Len())
			for _, s := range shards {
				CallTargetCountsRange(g, viable, s[0], s[1], callers)
			}
			if want := callTargetHints(g, viable); !hintsEq(want, CallTargetHintsOf(callers)) {
				t.Fatalf("graph %d shard %d: call-target hints diverge", gi, shard)
			}
		}
	}
}

func hintsEq(a, b []Hint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
