package core

import (
	"context"
	"sync"

	"probedis/internal/analysis"
	"probedis/internal/correct"
	"probedis/internal/ctxutil"
	"probedis/internal/obs"
	"probedis/internal/superset"
	"probedis/internal/tier"
)

// minShardBytes floors the configurable shard size. It exceeds the widest
// structural reach of any per-shard analysis — the 15-byte maximum
// instruction length, the 24-byte bounds-check lookback and the ~120-byte
// dispatch/literal chain walks (8 steps x 15 bytes) — so a shard's work
// is mostly local even though correctness never depends on it: every
// analysis reads the section through the global windowed graph, which
// serves any offset, seam or not.
const minShardBytes = 256

// ShardPlan tiles [0, n) into consecutive shards of at most shardBytes
// bytes (the last one short). shardBytes <= 0, or a section no larger
// than one shard, yields a single shard covering the section. The plan is
// a pure function of (n, shardBytes): the oracle recomputes it to locate
// seams, and tests sweep shardBytes to steer seams onto constructs.
func ShardPlan(n, shardBytes int) [][2]int {
	if shardBytes <= 0 || n <= shardBytes {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, (n+shardBytes-1)/shardBytes)
	for from := 0; from < n; from += shardBytes {
		to := from + shardBytes
		if to > n {
			to = n
		}
		out = append(out, [2]int{from, to})
	}
	return out
}

// shardedFor reports whether a section of n bytes gets the windowed
// graph backend (superset.BuildLazy): only plans with at least two
// shards do. Every section runs the same scheduler either way; a
// one-shard plan simply keeps the eager side table.
func (d *Disassembler) shardedFor(n int) bool {
	return d.shardBytes > 0 && n > d.shardBytes
}

// lazyBlockShift picks the windowed graph's block granularity: the
// largest power of two not exceeding the shard size, clamped to
// [4 KiB, 1 MiB] so tiny test shards still exercise real faulting and
// huge shards do not decode megabytes per point lookup.
func (d *Disassembler) lazyBlockShift() uint {
	shift := uint(12)
	for shift < 20 && 1<<(shift+1) <= d.shardBytes {
		shift++
	}
	return shift
}

// maxResidentBlocks caps the windowed graph's working set: every worker
// gets its shard's worth of blocks plus one for cross-seam reads, plus
// slack for the serial correction/CFG phases' locality. The cap scales
// with shard size and worker count, never with section size — that is
// the O(shard) residency claim, and the sharded benchmark measures it.
func (d *Disassembler) maxResidentBlocks() int {
	blockBytes := 1 << d.lazyBlockShift()
	perShard := (d.shardBytes + blockBytes - 1) / blockBytes
	return d.Workers()*(perShard+1) + 4
}

// workPool is the request-scoped work-stealing pool: every section of one
// request shares its slots, so shard tasks from a giant section drain
// onto workers that finished their own (small) sections instead of
// serializing behind the section fan-out. Each task runs on its own
// goroutine once it holds a slot; tasks never take slots themselves, so a
// saturated pool cannot deadlock, and at most cap(sem) tasks run at once.
// A workers<=1 configuration runs every task inline in index order (which
// the cancellation sweep relies on).
type workPool struct {
	sem chan struct{} // nil: always run inline (serial)
}

func newWorkPool(workers int) *workPool {
	if workers <= 1 {
		return &workPool{}
	}
	return &workPool{sem: make(chan struct{}, workers)}
}

// run executes fn(0..n-1) on the pool's slots and returns when all n
// calls finished.
func (p *workPool) run(n int, fn func(int)) {
	if p == nil || p.sem == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.sem <- struct{}{}
			fn(i)
			<-p.sem
		}(i)
	}
	wg.Wait()
}

// run executes the pipeline stages on a built superset graph over the
// section's shard plan (ShardPlan; one shard unless WithShardBytes splits
// the section): viability and the per-shard hint analyses fan out over
// the plan on the work-stealing pool, their outputs merge into one hint
// stream that does not depend on the plan (each analysis emits in
// ascending anchor order, so concatenation in shard order reproduces the
// one-shard scan; call-target counts accumulate section-wide before
// emission), and the corrector then consumes that stream under its usual
// total order — which is the whole seam-resolution rule: no seam-local
// tie-breaking exists to get wrong, so the output is byte-identical for
// every plan (enforced by oracle.CheckShards and the boundary-sweep
// suite).
//
// sp is the enclosing (per-section) trace span, or nil when tracing is
// off; every stage the section's wall time goes to is a direct child of
// sp. ctx is polled at every stage boundary and inside the hot loops;
// once it is done the run returns (nil, ctx.Err()) and partial stage
// output is discarded. pool is the request-scoped work pool (nil: a
// fresh one sized by WithWorkers).
//
// On the default tiered configuration, statistical scores live in one
// contested-bytes buffer (see windowScores), so scoring residency is
// O(contested bytes); with the windowed graph, pipeline residency beyond
// the unavoidable O(section) output arrays is O(shard x workers).
func (d *Disassembler) run(ctx context.Context, g *superset.Graph, entry int, sp *obs.Span, pool *workPool) (*Detail, error) {
	if pool == nil {
		pool = newWorkPool(d.Workers())
	}
	shards := ShardPlan(g.Len(), d.shardBytes)
	sp.Count("shards", int64(len(shards)))

	vsp := sp.StartChild("viability")
	viable, err := analysis.ViabilityRanges(ctx, g, shards, pool.run)
	vsp.End()
	if err != nil {
		return nil, err
	}

	// The tiered path defers statistical scoring and hints until the
	// structural hints have been committed, then runs them only over the
	// contested windows. It requires the statistical layer (otherwise
	// there is nothing to defer) and the prioritized commit order (flat
	// priorities erase the structural/statistical rank gap the phase
	// split relies on — see correct.RunTieredContext).
	tiered := d.useTier && d.useStats && !d.flatPrio
	var scores []float64
	if d.useStats && !tiered {
		// The single-phase path (ablations) scores every offset into a
		// pooled section-length buffer; its hints include the stat stage.
		scores = getScoreBuf(g.Len())
		defer putScoreBuf(scores)
		ssp := sp.StartChild("stats")
		d.model.ScoreAllInto(scores, g, d.window)
		ssp.Count("scored", int64(len(scores)))
		ssp.End()
		if ctxutil.Cancelled(ctx) {
			return nil, ctxutil.Err(ctx)
		}
	}

	hsp := sp.StartChild("hints")
	hints, tables := d.collectShardHints(ctx, g, viable, entry, scores, shards, hsp, pool)
	hsp.Count("hints", int64(len(hints)))
	hsp.End()
	// A cancellation observed by the collector leaves the hint stream
	// incomplete; abort before the partial stream reaches the corrector.
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	if d.flatPrio {
		for i := range hints {
			hints[i].Prio = analysis.PrioStat
			hints[i].Score = 0
		}
	}

	// The sequential per-shard scans are done; everything from here on —
	// hint commits in priority order, contested-window scoring, gap fill,
	// the CFG walk — reads the graph in scattered order, where faulting a
	// whole block to serve one offset would thrash the resident-block cap.
	// Point reads serve those misses at single-decode cost instead, keeping
	// residency frozen at its scan-phase bound (no-op on the eager graph).
	g.SetPointReads(true)

	csp := sp.StartChild("correct")
	var out *correct.Outcome
	var part *tier.Partition
	statHints := 0
	if tiered {
		structural, weak := tier.SplitHints(hints)
		var ws windowScores
		defer ws.release()
		out, err = correct.RunTieredContext(ctx, g, viable, structural, func(o *correct.Outcome) []analysis.Hint {
			part = tier.FromStates(o.State)
			tsp := csp.StartChild("tier")
			tsp.Count("settled", int64(part.SettledBytes))
			tsp.Count("contested", int64(part.ContestedBytes))
			tsp.Count("windows", int64(len(part.Windows)))
			tsp.End()
			ssp := csp.StartChild("stats")
			ws.score(d, g, part)
			ssp.Count("scored", int64(part.ContestedBytes))
			ssp.End()
			shsp := csp.StartChild("stathints")
			var stat []analysis.Hint
			for i, w := range part.Windows {
				stat = analysis.StatHintsRange(g, viable, ws.bufs[i],
					d.penaltyWeight, d.threshold, w[0], w[1], stat)
			}
			shsp.Count("hints", int64(len(stat)))
			shsp.End()
			statHints = len(stat)
			return append(stat, weak...)
		}, correct.Options{ScoreAt: ws.at, Trace: csp})
	} else {
		out, err = correct.RunContext(ctx, g, viable, hints, correct.Options{Scores: scores, Trace: csp})
	}
	csp.End()
	if err != nil {
		return nil, err
	}
	return d.finish(ctx, g, entry, viable, tables, hints, statHints, out, part, sp)
}

// collectShardHints runs every enabled analysis over the shard plan and
// returns the merged hint stream (unsorted) plus the discovered jump
// tables. The anchored analyses (jump tables, call targets, prologues,
// literal pools, and — when scores is non-nil — statistics) run once per
// shard as independent tasks on the pool, while the inherently global
// stages (entry; the raw-byte data-pattern runs, whose fill/string/
// pointer runs are unbounded and must not be split; float runs) are
// whole-section tasks carried by shard 0. Outputs merge in the fixed
// canonical stage order — entry, jump tables, call targets, prologues,
// data patterns, literal pools, float runs, statistics — with shards
// ascending inside each stage, so the stream is identical for every plan
// and every worker count. Each task runs inside its own child span of sp;
// ctx is polled before each task starts, and once it is done the
// remaining tasks are skipped, leaving an incomplete stream the caller
// must discard after its own ctx check.
func (d *Disassembler) collectShardHints(ctx context.Context, g *superset.Graph, viable []bool, entry int, scores []float64, shards [][2]int, sp *obs.Span, pool *workPool) ([]analysis.Hint, []analysis.JumpTable) {
	k := len(shards)
	var entryPart, dataPart, floatPart []analysis.Hint
	jtParts := make([][]analysis.JumpTable, k)
	callers := make([]int32, g.Len())
	proParts := make([][]analysis.Hint, k)
	litParts := make([][]analysis.Hint, k)
	var statParts [][]analysis.Hint
	if d.useStats && scores != nil {
		statParts = make([][]analysis.Hint, k)
	}

	// Task order is shard-major — every analysis for shard 0, then shard
	// 1, ... — so consecutive tasks read the same windowed-graph blocks.
	// Stage-major order (all jump-table shards, then all call-target
	// shards, ...) would sweep the section once per stage and refault
	// every block each time under the resident cap. Shard 0 carries the
	// whole-section tasks in their canonical positions, so a one-shard
	// plan runs its tasks in exactly the canonical stage order. Execution
	// order is pure cost: each task writes only its own slot (call-target
	// counts add atomically), and the merge below imposes the canonical
	// stage order.
	type task struct {
		name string
		fn   func()
	}
	var tasks []task
	for i, s := range shards {
		from, to := s[0], s[1]
		if i == 0 {
			tasks = append(tasks, task{"entry", func() { entryPart = analysis.EntryHint(g, entry) }})
		}
		if d.useJumpTables {
			tasks = append(tasks, task{"jumptable", func() {
				jtParts[i] = analysis.FindJumpTablesRange(g, viable, from, to, nil)
			}})
		}
		tasks = append(tasks,
			task{"calltarget", func() { analysis.CallTargetCountsRange(g, viable, from, to, callers) }},
			task{"prologue", func() { proParts[i] = analysis.PrologueHintsRange(g, viable, from, to, nil) }})
		if i == 0 {
			tasks = append(tasks, task{"datapattern", func() { dataPart = analysis.DataPatternHints(g) }})
		}
		tasks = append(tasks, task{"literalpool", func() {
			litParts[i] = analysis.LiteralPoolHintsRange(g, viable, from, to, nil)
		}})
		if i == 0 && d.useFloatRuns {
			tasks = append(tasks, task{"floatrun", func() { floatPart = analysis.FloatRunHints(g) }})
		}
		if statParts != nil {
			tasks = append(tasks, task{"stat", func() {
				statParts[i] = analysis.StatHintsRange(g, viable, scores[from:to],
					d.penaltyWeight, d.threshold, from, to, nil)
			}})
		}
	}

	pool.run(len(tasks), func(ti int) {
		if ctxutil.Cancelled(ctx) {
			return
		}
		ssp := sp.StartChild(tasks[ti].name)
		tasks[ti].fn()
		ssp.End()
	})

	// Merge: canonical stage order, shards ascending within a stage.
	var tables []analysis.JumpTable
	for _, p := range jtParts {
		tables = append(tables, p...)
	}
	parts := [][]analysis.Hint{entryPart, analysis.JumpTableHints(tables), analysis.CallTargetHintsOf(callers)}
	parts = append(parts, proParts...)
	parts = append(parts, dataPart)
	parts = append(parts, litParts...)
	parts = append(parts, floatPart)
	parts = append(parts, statParts...)
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	hints := make([]analysis.Hint, 0, total)
	for _, p := range parts {
		hints = append(hints, p...)
	}
	return hints, tables
}

// windowScores holds the tiered path's statistical scores for the
// contested windows only: one pooled buffer of ContestedBytes length,
// carved into one window-relative slice per window, instead of a
// section-length buffer.
type windowScores struct {
	windows [][2]int
	bufs    [][]float64
	buf     []float64
}

// score carves the buffer into one slice per window and fills them.
// Values are bit-identical to a full pass. Windows are scored serially:
// they are many and small (about 1,700 per MiB on real binaries), so a
// task per window would cost more in scheduling than it saves.
func (ws *windowScores) score(d *Disassembler, g *superset.Graph, part *tier.Partition) {
	ws.windows = part.Windows
	ws.buf = getScoreBuf(part.ContestedBytes)
	ws.bufs = make([][]float64, len(part.Windows))
	off := 0
	for i, w := range part.Windows {
		n := w[1] - w[0]
		ws.bufs[i] = ws.buf[off : off+n : off+n]
		d.model.ScoreWindowInto(ws.bufs[i], g, d.window, w[0], w[1])
		off += n
	}
}

// release returns the buffer to the score pool once the corrector, which
// reads it through at, is done.
func (ws *windowScores) release() {
	if ws.buf != nil {
		putScoreBuf(ws.buf)
	}
}

// at serves a point lookup (correct.Options.ScoreAt): binary search for
// the window containing off. Offsets outside every contested window
// return 0 — gap fill only consults gap starts, which always lie inside
// a contested window, so this case is never load-bearing.
func (ws *windowScores) at(off int) float64 {
	lo, hi := 0, len(ws.windows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ws.windows[mid][0] <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 || off >= ws.windows[lo-1][1] {
		return 0
	}
	return ws.bufs[lo-1][off-ws.windows[lo-1][0]]
}
