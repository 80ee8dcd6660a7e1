package correct

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"probedis/internal/analysis"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

// quickGraph is a fixed, data-dense graph shared by the invariant tests.
func quickGraph(t testing.TB) (*superset.Graph, []bool) {
	t.Helper()
	b, err := synth.Generate(synth.Config{Seed: 95, Profile: synth.ProfileComplex, NumFuncs: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := superset.Build(b.Code, b.Base)
	return g, viability(g)
}

// genHints produces an arbitrary (often nonsensical) hint list.
func genHints(rng *rand.Rand, n int) []analysis.Hint {
	hs := make([]analysis.Hint, rng.Intn(64))
	prios := []int{analysis.PrioProof, analysis.PrioStrong, analysis.PrioMedium,
		analysis.PrioStat, analysis.PrioWeak}
	for i := range hs {
		hs[i] = analysis.Hint{
			Kind:  analysis.Kind(rng.Intn(2)),
			Off:   rng.Intn(n+64) - 32, // some out of range
			Len:   rng.Intn(64),
			Prio:  prios[rng.Intn(len(prios))],
			Score: rng.Float64() * 20,
			Src:   "fuzz",
		}
	}
	return hs
}

// TestQuickCorrectionInvariants feeds arbitrary hints: whatever garbage
// arrives, the outcome must satisfy the structural invariants —
// instruction starts only at viable offsets, instructions tile without
// overlap, instruction bytes are Code, and every byte is classified.
func TestQuickCorrectionInvariants(t *testing.T) {
	g, viable := quickGraph(t)
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genHints(rng, g.Len()))
		},
	}
	f := func(hints []analysis.Hint) bool {
		out := Run(g, viable, hints, Options{})
		covered := make([]bool, g.Len())
		for off := 0; off < g.Len(); off++ {
			if !out.InstStart[off] {
				continue
			}
			if !viable[off] || !g.Valid(off) {
				return false
			}
			from, to := g.Occupies(off)
			for i := from; i < to; i++ {
				if covered[i] || out.State[i] != Code || out.Owner[i] != int32(off) {
					return false
				}
				covered[i] = true
			}
		}
		for i := 0; i < g.Len(); i++ {
			if out.State[i] == Unknown {
				return false // gap fill must classify everything
			}
			if out.State[i] == Code && !covered[i] {
				return false // code bytes must belong to an instruction
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism: the same hints (in any slice order) must produce
// the same outcome — commit order depends only on (prio, score, off, kind).
func TestQuickDeterminism(t *testing.T) {
	g, viable := quickGraph(t)
	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genHints(rng, g.Len()))
			vals[1] = reflect.ValueOf(rng.Int63())
		},
	}
	f := func(hints []analysis.Hint, seed int64) bool {
		a := Run(g, viable, hints, Options{})
		shuffled := make([]analysis.Hint, len(hints))
		copy(shuffled, hints)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b := Run(g, viable, shuffled, Options{})
		for i := range a.State {
			if a.State[i] != b.State[i] || a.InstStart[i] != b.InstStart[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSortOrderMatchesSortHints: the packed-key ordering must agree
// with the reference comparator on priority and (within float32 precision)
// score ordering.
func TestQuickSortOrderMatchesSortHints(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genHints(rng, 4096))
		},
	}
	f := func(hints []analysis.Hint) bool {
		order := sortOrder(hints)
		if len(order) != len(hints) {
			return false
		}
		seen := make([]bool, len(hints))
		for i := 1; i < len(order); i++ {
			prev, cur := hints[order[i-1]], hints[order[i]]
			if prev.Prio < cur.Prio {
				return false
			}
			if prev.Prio == cur.Prio && prev.Score < cur.Score-0.01*(1+cur.Score) {
				return false // allow float32 truncation slack only
			}
		}
		for _, idx := range order {
			if idx < 0 || int(idx) >= len(hints) || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHeapKeysMatchesQuicksort: the heapsort fallback (reached only past
// the introsort depth limit, which no realistic hint set triggers) must
// produce the identical permutation as the main quicksort path — keyLess
// is a strict total order, so both sorts have exactly one valid output.
func TestHeapKeysMatchesQuicksort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		hints := genHints(rng, 4096)
		a := make([]hintKey, len(hints))
		for i := range hints {
			a[i] = hintKey{hi: rng.Uint64() >> 60, lo: rng.Uint64() >> 62,
				idx: int32(i)} // narrow ranges force duplicate (hi, lo) pairs
		}
		b := append([]hintKey(nil), a...)
		sortKeys(a, hints)
		heapKeys(b, hints)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: heapsort diverges at %d: %+v vs %+v",
					trial, i, a[i], b[i])
			}
		}
		for i := 1; i < len(a); i++ {
			if keyLess(&a[i], &a[i-1], hints) {
				t.Fatalf("trial %d: not sorted at %d", trial, i)
			}
		}
	}
}
