// Package correct implements the prioritized error-correction algorithm
// that combines the statistical and behavioural evidence into a final
// byte-precise code/data classification.
//
// Hints are committed in priority order. Committing a code hint decodes
// and occupies the instruction chain it implies (fallthrough edges and
// direct branch targets are forced facts); committing a data hint reserves
// bytes as data. Every commitment constrains later, lower-priority hints:
// a hint whose region conflicts with already-committed facts is rejected —
// this is how high-confidence structural proofs "correct" the errors the
// purely statistical layer would make.
package correct

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"probedis/internal/analysis"
	"probedis/internal/ctxutil"
	"probedis/internal/obs"
	"probedis/internal/superset"
)

// State is the correction state of one byte.
type State uint8

// Byte states.
const (
	Unknown State = iota
	Code
	Data
)

// Options tunes a correction run.
type Options struct {
	// MaxHints stops after committing/rejecting this many hints
	// (0 = no limit). Used by the convergence experiment (F3).
	MaxHints int
	// Scores are the per-offset statistical scores used to resolve
	// leftover unknown gaps (nil disables score-guided gap fill and
	// treats unresolvable gaps as data).
	Scores []float64
	// ScoreAt is a sparse alternative to Scores, consulted only when
	// Scores is nil: the tiered pipeline scores only the contested
	// windows (O(contested) instead of O(section) resident) and serves
	// point lookups through this callback. Gap fill reads scores only at
	// gap starts, and every gap is a subset of a contested window, so the
	// two forms see identical values there.
	ScoreAt func(off int) float64
	// NoGapFill leaves Unknown bytes unresolved (ablation).
	NoGapFill bool
	// NoRetract skips the contradiction-retraction fixpoint, leaving the
	// raw post-commit state. Used by the tiered pre-pass, which inspects
	// the state after the structural commit prefix: retraction must run
	// only once, after the full commit sequence.
	NoRetract bool
	// Trace, when non-nil, receives one child span per correction phase
	// (sort, commit, retract, gapfill) plus the committed/rejected/
	// retracted counters. Nil (the default) traces nothing.
	Trace *obs.Span
}

// Outcome is the result of a correction run.
type Outcome struct {
	State     []State
	InstStart []bool
	// Owner[i] is the start offset of the committed instruction covering
	// byte i, or -1.
	Owner []int32

	// Srcs interns the hint sources; SrcOf[i] indexes into it and names
	// the analysis whose hint decided byte i (code or data). Index 0 is
	// always "" (undecided / gap fill).
	Srcs  []string
	SrcOf []uint8

	Committed int // hints that contributed at least one new byte
	Rejected  int // hints dropped due to conflicts
	Retracted int // committed instructions undone by the retraction pass
}

// SrcName returns the name of the analysis that decided byte i
// ("gapfill" when no hint claimed it).
func (o *Outcome) SrcName(i int) string {
	if s := o.Srcs[o.SrcOf[i]]; s != "" {
		return s
	}
	return "gapfill"
}

// commitCheckInterval is the number of hint commits between cancellation
// polls in RunContext's commit loop. Commits are orders of magnitude
// heavier than offset scans, so the interval is correspondingly smaller
// than ctxutil.CheckInterval.
const commitCheckInterval = 256

// Run executes prioritized error correction over the superset graph.
// hints are consumed in SortHints order; viable gates all code commits.
func Run(g *superset.Graph, viable []bool, hints []analysis.Hint, opts Options) *Outcome {
	out, _ := RunContext(nil, g, viable, hints, opts)
	return out
}

// RunContext is Run with cooperative cancellation: the commit loop polls
// ctx every commitCheckInterval hints and the retract/gap-fill scans every
// ctxutil.CheckInterval offsets. Once the context is done the run aborts
// and returns (nil, ctx.Err()) — the partial outcome is discarded, never
// returned, so callers can't mistake an aborted classification for a
// complete one. A nil ctx (what Run passes) keeps the exact uncancellable
// instruction sequence.
func RunContext(ctx context.Context, g *superset.Graph, viable []bool, hints []analysis.Hint, opts Options) (*Outcome, error) {
	c := newCorrector(g, viable)
	defer c.release()
	if err := c.commitHints(ctx, hints, opts.MaxHints, opts.Trace, ""); err != nil {
		return nil, err
	}
	return c.finish(ctx, opts)
}

// PhaseHintsFunc produces the second-phase hint stream of a tiered run,
// given the outcome of the structural commit prefix. Implementations may
// read o (typically the Unknown runs, which delimit the contested
// windows) but must not mutate it.
type PhaseHintsFunc func(o *Outcome) []analysis.Hint

// RunTieredContext executes correction in two phases. Phase one commits
// the structural hints; rest then inspects the intermediate state and
// returns the remaining (statistical and weak) hints, which phase two
// commits; retraction and gap fill run once, after both phases.
//
// The result is byte-identical to a single RunContext over the combined
// hint stream whenever (a) every structural hint outranks every hint
// rest returns (the priority-first sort then concatenates the two phases
// exactly as the single sorted stream would), and (b) rest returns the
// hints the single run would have carried at offsets still undecided —
// hints at already-decided offsets are provable no-ops, because the
// commit phase is monotone: instruction starts are never cleared and
// data bytes never reclassified until the retraction fixpoint, which
// here runs only after all commits, exactly as in the single run.
//
// MaxHints is not supported on this path (the budget experiment replays
// single-phase runs) and is ignored.
func RunTieredContext(ctx context.Context, g *superset.Graph, viable []bool, structural []analysis.Hint, rest PhaseHintsFunc, opts Options) (*Outcome, error) {
	c := newCorrector(g, viable)
	defer c.release()
	if err := c.commitHints(ctx, structural, 0, opts.Trace, "-structural"); err != nil {
		return nil, err
	}
	contested := rest(c.out)
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	if err := c.commitHints(ctx, contested, 0, opts.Trace, "-contested"); err != nil {
		return nil, err
	}
	return c.finish(ctx, opts)
}

// newCorrector allocates the outcome and wires up pooled scratch buffers.
// release must run on every exit, including cancellation aborts, so a
// cancelled run never leaks the (grown) buffers.
func newCorrector(g *superset.Graph, viable []bool) *corrector {
	n := g.Len()
	o := &Outcome{
		State:     make([]State, n),
		InstStart: make([]bool, n),
		Owner:     make([]int32, n),
		Srcs:      []string{""},
		SrcOf:     make([]uint8, n),
	}
	for i := range o.Owner {
		o.Owner[i] = -1
	}
	sc := scratchPool.Get().(*scratch)
	return &corrector{g: g, viable: viable, out: o, srcIdx: map[string]uint8{"": 0},
		sc: sc, stack: sc.stack, succs: sc.succs, chain: sc.chain}
}

// release returns the (possibly grown) scratch buffers to the pool.
func (c *corrector) release() {
	c.sc.stack, c.sc.succs, c.sc.chain = c.stack[:0], c.succs[:0], c.chain[:0]
	scratchPool.Put(c.sc)
	c.sc = nil
}

// commitHints sorts one hint stream into commit order and consumes it.
// label suffixes the trace span names so a tiered run's two phases stay
// distinguishable in stage-cost tables.
func (c *corrector) commitHints(ctx context.Context, hints []analysis.Hint, maxHints int, trace *obs.Span, label string) error {
	o := c.out
	ssp := trace.StartChild("sort" + label)
	order := sortOrder(hints)
	ssp.Count("hints", int64(len(hints)))
	ssp.End()

	csp := trace.StartChild("commit" + label)
	defer csp.End()
	var lastSrc string
	var haveLast bool
	for i, hi := range order {
		if maxHints > 0 && i >= maxHints {
			break
		}
		if i&(commitCheckInterval-1) == 0 && ctxutil.Cancelled(ctx) {
			return ctxutil.Err(ctx)
		}
		h := hints[hi]
		// Consecutive hints usually share a source (the sort groups by
		// priority, and each analysis emits one source name); skip the
		// intern-map lookup when the source repeats. c.curSrc still holds
		// the interned index from the previous iteration.
		if !haveLast || h.Src != lastSrc {
			c.curSrc = c.internSrc(h.Src)
			lastSrc, haveLast = h.Src, true
		}
		var ok bool
		switch h.Kind {
		case analysis.HintCode:
			ok = c.commitChain(h.Off)
		case analysis.HintData:
			ok = c.commitData(h.Off, h.Len)
		}
		if ok {
			o.Committed++
		} else {
			o.Rejected++
		}
	}
	return nil
}

// finish runs the post-commit phases — retraction fixpoint and gap fill —
// and returns the completed outcome.
func (c *corrector) finish(ctx context.Context, opts Options) (*Outcome, error) {
	o := c.out
	if !opts.NoRetract {
		rsp := opts.Trace.StartChild("retract")
		retracted, err := c.retract(ctx)
		rsp.End()
		if err != nil {
			return nil, err
		}
		o.Retracted = retracted
	}
	if !opts.NoGapFill {
		gsp := opts.Trace.StartChild("gapfill")
		err := c.fillGaps(ctx, opts.Scores, opts.ScoreAt)
		gsp.End()
		if err != nil {
			return nil, err
		}
	}
	if opts.Trace != nil {
		opts.Trace.Count("committed", int64(o.Committed))
		opts.Trace.Count("rejected", int64(o.Rejected))
		opts.Trace.Count("retracted", int64(o.Retracted))
	}
	return o, nil
}

// scratch bundles the corrector's reusable work buffers. Pooled: one
// correction run per section, and the commit/retract loops call
// ForcedSuccs for every committed instruction, so recycling the buffers
// removes the hot path's steady allocation churn.
type scratch struct {
	stack, succs, chain []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// retract is the error-correction fixpoint: committed instructions whose
// forced successor turned out to be data (or the middle of another
// committed instruction) were wrong — un-commit them, turning their bytes
// into data, and repeat until no contradiction remains. Returns the number
// of instructions retracted. The scan polls ctx once per
// ctxutil.CheckInterval offsets (outside the per-offset loop, so the
// nil-ctx path is unchanged) and aborts with ctx.Err() when cancelled.
//
// Scans run in descending offset order. Retraction is monotone — turning
// an instruction's bytes to data can only make other instructions bad,
// never good — so the fixpoint is unique and any scan order reaches it;
// the order only decides how many passes that takes. A contradiction
// propagates to predecessors, and the dominant predecessor edge is the
// fall-through, which always points forward: scanning backward retracts a
// whole fall-through cascade in the pass that finds its root, where an
// ascending scan would peel one instruction per pass (observed as tens of
// full-section passes on multi-MiB sections). Only backward-branch edges
// still need an extra pass.
func (c *corrector) retract(ctx context.Context) (int, error) {
	total := 0
	n := c.g.Len()
	for {
		changed := 0
		for end := n; end > 0; end -= ctxutil.CheckInterval {
			if ctxutil.Cancelled(ctx) {
				return 0, ctxutil.Err(ctx)
			}
			chunk := end - ctxutil.CheckInterval
			if chunk < 0 {
				chunk = 0
			}
			changed += c.retractScan(chunk, end)
		}
		total += changed
		if changed == 0 {
			return total, nil
		}
	}
}

// retractScan runs one contradiction scan over [from, to) in descending
// offset order, returning the number of instructions retracted.
func (c *corrector) retractScan(from, to int) int {
	changed := 0
	for off := to - 1; off >= from; off-- {
		if !c.out.InstStart[off] {
			continue
		}
		bad := false
		c.succs = c.g.ForcedSuccs(c.succs[:0], off)
		for _, s := range c.succs {
			if s < 0 {
				bad = true
				break
			}
			if c.out.State[s] == Data ||
				(c.out.Owner[s] != -1 && !c.out.InstStart[s]) {
				bad = true
				break
			}
		}
		if !bad {
			continue
		}
		a, b := c.g.Occupies(off)
		for i := a; i < b; i++ {
			c.out.State[i] = Data
			c.out.Owner[i] = -1
			c.out.SrcOf[i] = 0
		}
		c.out.InstStart[off] = false
		changed++
	}
	return changed
}

// hintKey is a hint's precomputed commit-order key: two words compared
// descending reproduce priority, full 64-bit score, offset and kind of
// the canonical order without touching the hint struct during the sort.
type hintKey struct {
	hi, lo uint64
	idx    int32
}

// sortOrder returns hint indices in commit order (the same order as
// analysis.SortHints) without moving the hint structs: each hint collapses
// into one packed 128-bit key computed once, so the comparator is two
// integer compares instead of re-deriving fields per call.
//
// Key layout, compared descending: priority (8 bits) | score as an
// order-preserving float64 bit pattern (64 bits, split across the words) |
// bitwise-inverted offset (46 bits) | inverted kind (code before data).
// The score keeps full precision, so keys collide only for hints agreeing
// on priority, score, offset and kind; those fall back to the canonical
// total hint order (analysis.Hint.Less — source name, then length), so
// the commit order never depends on the order the analyses — possibly
// running concurrently — emitted the hints in.
func sortOrder(hints []analysis.Hint) []int32 {
	keys := make([]hintKey, len(hints))
	const offBits = 46
	for i := range hints {
		h := &hints[i]
		s := h.Score
		if s == 0 {
			s = 0 // collapse -0 onto +0: they compare equal as floats
		}
		// Order-preserving transform of the float64 bit pattern: flip the
		// sign bit for non-negatives, all bits for negatives. Descending
		// unsigned order then matches descending float order.
		sbits := math.Float64bits(s)
		if sbits&(1<<63) == 0 {
			sbits |= 1 << 63
		} else {
			sbits = ^sbits
		}
		prio := h.Prio
		if prio < 0 {
			prio = 0
		} else if prio > 255 {
			prio = 255
		}
		off := h.Off
		if off < 0 {
			off = 0
		} else if off >= 1<<offBits {
			off = 1<<offBits - 1
		}
		keys[i] = hintKey{
			hi:  uint64(prio)<<56 | sbits>>8,
			lo:  (sbits&0xff)<<56 | uint64((1<<offBits-1)-off)<<10 | uint64(1-h.Kind)<<9,
			idx: int32(i),
		}
	}
	sortKeys(keys, hints)
	order := make([]int32, len(keys))
	for i := range keys {
		order[i] = keys[i].idx
	}
	return order
}

// keyLess orders hintKeys: descending (hi, lo), rare full-key ties falling
// back to the canonical hint order. The two-word fast path inlines into
// the sort loops; the tie branch stays out of line. The order is total and
// strict (idx is unique), so no two keys ever compare equal and any
// correct sort produces the same permutation.
func keyLess(a, b *hintKey, hints []analysis.Hint) bool {
	if a.hi != b.hi {
		return a.hi > b.hi
	}
	if a.lo != b.lo {
		return a.lo > b.lo
	}
	return tieLess(a, b, hints)
}

//go:noinline
func tieLess(a, b *hintKey, hints []analysis.Hint) bool {
	ha, hb := hints[a.idx], hints[b.idx]
	if ha.Less(hb) {
		return true
	}
	if hb.Less(ha) {
		return false
	}
	return a.idx < b.idx
}

// sortKeys is an introsort (quicksort with median-of-three pivots,
// insertion sort below 12 elements, heapsort past the depth limit)
// specialized to hintKey so the comparator inlines — the generic
// sort.Slice/slices.SortFunc equivalents pay an indirect call per compare,
// which dominates the corrector's sort phase on large hint sets.
func sortKeys(keys []hintKey, hints []analysis.Hint) {
	if len(keys) < 2 {
		return
	}
	quickKeys(keys, 2*bits.Len(uint(len(keys))), hints)
}

func quickKeys(k []hintKey, depth int, hints []analysis.Hint) {
	for len(k) > 12 {
		if depth == 0 {
			heapKeys(k, hints)
			return
		}
		depth--
		m := len(k) / 2
		last := len(k) - 1
		if keyLess(&k[m], &k[0], hints) {
			k[m], k[0] = k[0], k[m]
		}
		if keyLess(&k[last], &k[0], hints) {
			k[last], k[0] = k[0], k[last]
		}
		if keyLess(&k[last], &k[m], hints) {
			k[last], k[m] = k[m], k[last]
		}
		k[0], k[m] = k[m], k[0] // median of three to pivot slot
		pivot := k[0]
		i, j := 1, last
		for {
			for i <= j && keyLess(&k[i], &pivot, hints) {
				i++
			}
			for i <= j && keyLess(&pivot, &k[j], hints) {
				j--
			}
			if i > j {
				break
			}
			k[i], k[j] = k[j], k[i]
			i++
			j--
		}
		k[0], k[j] = k[j], k[0]
		if j < len(k)-j { // recurse into the smaller half, loop on the rest
			quickKeys(k[:j], depth, hints)
			k = k[j+1:]
		} else {
			quickKeys(k[j+1:], depth, hints)
			k = k[:j]
		}
	}
	for i := 1; i < len(k); i++ {
		for j := i; j > 0 && keyLess(&k[j], &k[j-1], hints); j-- {
			k[j], k[j-1] = k[j-1], k[j]
		}
	}
}

func heapKeys(k []hintKey, hints []analysis.Hint) {
	n := len(k)
	for i := n/2 - 1; i >= 0; i-- {
		siftKeys(k, i, n, hints)
	}
	for i := n - 1; i > 0; i-- {
		k[0], k[i] = k[i], k[0]
		siftKeys(k, 0, i, hints)
	}
}

func siftKeys(k []hintKey, i, n int, hints []analysis.Hint) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && keyLess(&k[c], &k[c+1], hints) {
			c++
		}
		if !keyLess(&k[i], &k[c], hints) {
			return
		}
		k[i], k[c] = k[c], k[i]
		i = c
	}
}

type corrector struct {
	g      *superset.Graph
	viable []bool
	out    *Outcome
	sc     *scratch // pool entry backing stack/succs/chain; see release
	stack  []int
	succs  []int
	chain  []int // commitChain's successor buffer (stack and succs are live there)

	srcIdx map[string]uint8
	curSrc uint8
}

// internSrc maps a hint source name to its index in Outcome.Srcs. The
// table is capped at 255 distinct names (ample for the fixed analysis
// set); overflow collapses to index 0.
func (c *corrector) internSrc(s string) uint8 {
	if i, ok := c.srcIdx[s]; ok {
		return i
	}
	if len(c.out.Srcs) >= 255 {
		return 0
	}
	i := uint8(len(c.out.Srcs))
	c.out.Srcs = append(c.out.Srcs, s)
	c.srcIdx[s] = i
	return i
}

// canPlace reports whether the instruction at off can be committed without
// contradicting existing facts.
func (c *corrector) canPlace(off int) bool {
	if off < 0 || off >= c.g.Len() || !c.viable[off] {
		return false
	}
	if c.out.InstStart[off] {
		return true // already committed, trivially consistent
	}
	if c.out.Owner[off] != -1 {
		return false // inside another committed instruction
	}
	from, to := c.g.Occupies(off)
	for i := from; i < to; i++ {
		if c.out.State[i] == Data || (c.out.Owner[i] != -1 && c.out.Owner[i] != int32(off)) {
			return false
		}
	}
	// One-step lookahead: an instruction whose forced successor starts on
	// a proven-data byte cannot be code (code never falls into data).
	c.succs = c.g.ForcedSuccs(c.succs[:0], off)
	for _, s := range c.succs {
		if s >= 0 && c.out.State[s] == Data {
			return false
		}
	}
	return true
}

// commitChain commits the instruction at off and transitively everything
// it forces (fallthrough, direct targets). Paths that hit a contradiction
// are abandoned without rolling back the consistent prefix. Returns false
// if nothing new was committed.
func (c *corrector) commitChain(off int) bool {
	if !c.canPlace(off) {
		return false
	}
	progressed := false
	c.stack = append(c.stack[:0], off)
	for len(c.stack) > 0 {
		o := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		if c.out.InstStart[o] || !c.canPlace(o) {
			continue
		}
		from, to := c.g.Occupies(o)
		for i := from; i < to; i++ {
			c.out.State[i] = Code
			c.out.Owner[i] = int32(o)
			c.out.SrcOf[i] = c.curSrc
		}
		c.out.InstStart[o] = true
		progressed = true
		c.chain = c.g.ForcedSuccs(c.chain[:0], o)
		for _, s := range c.chain {
			if s >= 0 {
				c.stack = append(c.stack, s)
			}
		}
	}
	return progressed
}

// commitData reserves [off, off+n) as data, skipping bytes already proven
// code. Returns false when a majority of the region was already code (the
// hint is considered refuted).
func (c *corrector) commitData(off, n int) bool {
	if n <= 0 || off < 0 || off >= c.g.Len() {
		return false
	}
	end := off + n
	if end > c.g.Len() {
		end = c.g.Len()
	}
	placed, blocked := 0, 0
	for i := off; i < end; i++ {
		switch c.out.State[i] {
		case Code:
			blocked++
		case Unknown:
			c.out.State[i] = Data
			c.out.SrcOf[i] = c.curSrc
			placed++
		}
	}
	return placed > 0 && blocked <= placed
}

// fillGaps resolves remaining Unknown runs. A gap whose start scores
// code-like is tiled with a linear decode chain; anything that cannot be
// tiled consistently becomes data. The scan polls ctx once per
// ctxutil.CheckInterval offsets of progress and aborts with ctx.Err()
// when cancelled; a nil ctx never polls.
func (c *corrector) fillGaps(ctx context.Context, scores []float64, scoreAt func(int) float64) error {
	n := c.g.Len()
	nextCheck := ctxutil.CheckInterval
	for a := 0; a < n; {
		if a >= nextCheck {
			if ctxutil.Cancelled(ctx) {
				return ctxutil.Err(ctx)
			}
			nextCheck = a + ctxutil.CheckInterval
		}
		if c.out.State[a] != Unknown {
			a++
			continue
		}
		b := a
		for b < n && c.out.State[b] == Unknown {
			b++
		}
		c.fillGap(a, b, scores, scoreAt)
		a = b
	}
	return nil
}

func (c *corrector) fillGap(a, b int, scores []float64, scoreAt func(int) float64) {
	codeLike := true
	switch {
	case scores != nil:
		codeLike = a < len(scores) && scores[a] > 0
	case scoreAt != nil:
		codeLike = scoreAt(a) > 0
	}
	// A gap that tiles exactly with NOP-family instructions is alignment
	// padding: emit it as code regardless of its statistical score (NOP
	// padding is valid, never-executed code).
	if !codeLike && c.nopTiles(a, b) {
		codeLike = true
	}
	// Tile starts committed into this gap, kept for the post-derail
	// consistency sweep below. c.stack is idle during gap fill (the
	// commit phase is over), so its backing array is reused.
	tiles := c.stack[:0]
	derailed := false
	pos := a
	for pos < b {
		if codeLike && c.canPlace(pos) {
			from, to := c.g.Occupies(pos)
			// Only tile instructions that fit inside the gap: poking into
			// the committed region past b would contradict it.
			if to <= b {
				for i := from; i < to; i++ {
					c.out.State[i] = Code
					c.out.Owner[i] = int32(pos)
				}
				c.out.InstStart[pos] = true
				tiles = append(tiles, pos)
				pos = to
				continue
			}
		}
		// Not tilable as code: data byte.
		c.out.State[pos] = Data
		pos++
		codeLike = false // once derailed, finish the gap as data
		derailed = true
	}
	// A derail rewrites the gap's tail as data after earlier tiles were
	// already committed; a tile whose forced successor now lands on those
	// data bytes (a fallthrough into the tail, or a branch ahead of the
	// derail point) is the very contradiction retraction removes — but
	// retraction already ran. Restore consistency locally.
	if derailed && len(tiles) > 0 {
		c.unwindTiles(tiles)
	}
	c.stack = tiles[:0]
}

// unwindTiles retracts gap tiles invalidated by a mid-gap derail, to a
// fixpoint: retracting one tile turns its bytes into data, which can
// invalidate the tile falling into it, and so on backward through the
// gap. The badness predicate matches retractScan's.
func (c *corrector) unwindTiles(tiles []int) {
	for changed := true; changed; {
		changed = false
		for i, t := range tiles {
			if t < 0 {
				continue
			}
			bad := false
			c.succs = c.g.ForcedSuccs(c.succs[:0], t)
			for _, s := range c.succs {
				if s < 0 || c.out.State[s] == Data ||
					(c.out.Owner[s] != -1 && !c.out.InstStart[s]) {
					bad = true
					break
				}
			}
			if !bad {
				continue
			}
			from, to := c.g.Occupies(t)
			for j := from; j < to; j++ {
				c.out.State[j] = Data
				c.out.Owner[j] = -1
				c.out.SrcOf[j] = 0
			}
			c.out.InstStart[t] = false
			c.out.Retracted++
			tiles[i] = -1
			changed = true
		}
	}
}

// nopTiles reports whether the non-empty range [a, b) decodes as a pure
// run of NOP-family instructions ending exactly at b. An empty range is
// not padding: the vacuous-truth answer would flip fillGap's
// classification for zero-length gaps.
func (c *corrector) nopTiles(a, b int) bool {
	if a >= b {
		return false
	}
	pos := a
	for pos < b {
		e := c.g.At(pos)
		if !e.Valid() || !e.IsNop() {
			return false
		}
		pos += int(e.Len)
	}
	return pos == b
}
