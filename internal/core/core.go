// Package core is the public entry point of the metadata-free
// disassembler: it combines superset disassembly, the data-driven
// statistical models, the static/behavioural analyses and the prioritized
// error-correction algorithm into a byte-precise code/data classification
// with recovered instructions, basic blocks and functions.
//
// Typical use:
//
//	d := core.New(core.DefaultModel())
//	res := d.Disassemble(text, base, entryOff)
package core

import (
	"context"
	"runtime"
	"sync"

	"probedis/internal/analysis"
	"probedis/internal/cfg"
	"probedis/internal/correct"
	"probedis/internal/dis"
	"probedis/internal/obs"
	"probedis/internal/stats"
	"probedis/internal/superset"
	"probedis/internal/tier"
)

// PipelineFingerprint identifies the pipeline generation for the
// persistent result store (internal/store): entries written under a
// different fingerprint are invalidated wholesale, because a cached
// result is only reusable while the pipeline that produced it would
// reproduce it byte for byte. Bump the version suffix in any PR that
// changes pipeline output or the serialized response encoding (the
// pinned-accuracy and golden-listing tests are the tripwires for the
// former).
const PipelineFingerprint = "probedis-pipeline-v1"

// Option configures a Disassembler.
type Option func(*Disassembler)

// WithoutStats disables the statistical classification layer (ablation:
// analyses + correction only).
func WithoutStats() Option { return func(d *Disassembler) { d.useStats = false } }

// WithoutBehavior disables the behavioural chain penalty (ablation).
func WithoutBehavior() Option { return func(d *Disassembler) { d.penaltyWeight = 0 } }

// WithoutJumpTables disables jump-table discovery (ablation).
func WithoutJumpTables() Option { return func(d *Disassembler) { d.useJumpTables = false } }

// WithoutPrioritization removes the prioritized commit order (ablation):
// every hint gets the same priority and score, so the corrector consumes
// evidence in address order — the naive single-pass strategy — instead of
// proofs-first. The analyses still run; only the combination loses its
// ordering.
func WithoutPrioritization() Option { return func(d *Disassembler) { d.flatPrio = true } }

// WithThreshold shifts the statistical decision boundary (F4 sweep).
func WithThreshold(t float64) Option { return func(d *Disassembler) { d.threshold = t } }

// WithoutTiering disables the tiered correction pre-pass: statistical
// scores and hints are computed over the whole section instead of only
// the contested windows left undecided by the structural hints. The
// classification is byte-identical either way (see package tier); the
// single-phase path exists as the reference for that equivalence and for
// experiments that replay the full hint stream.
func WithoutTiering() Option { return func(d *Disassembler) { d.useTier = false } }

// WithFloatRuns enables the experimental unreferenced-constant-pool
// detector (see analysis.FloatRunHints for why it is off by default).
func WithFloatRuns() Option { return func(d *Disassembler) { d.useFloatRuns = true } }

// WithWindow sets the scoring window in instructions (default 8).
func WithWindow(w int) Option { return func(d *Disassembler) { d.window = w } }

// WithWorkers bounds the pipeline's worker pool: ELF section fan-out and
// the concurrent hint analyses use at most n goroutines. n <= 0 (the
// default) means GOMAXPROCS; n == 1 forces the fully serial path. The
// result is byte-identical for every n — parallelism only changes
// wall-clock time.
func WithWorkers(n int) Option { return func(d *Disassembler) { d.workers = n } }

// WithShardBytes splits sections larger than n bytes into ~n-byte shards
// for the analysis stages: the superset side table becomes a windowed
// on-demand structure (resident working set O(shard x workers) instead
// of ~16x the section), viability and the anchored hint analyses run per
// shard on the worker pool — stealing slots across shards and sections
// within one request — and the per-shard outputs merge deterministically
// into the exact stream a one-shard plan produces, so the final
// classification is byte-identical for every shard size (enforced by
// oracle.CheckShards and the seam boundary-sweep suite). n <= 0 (the
// default) runs every section as a single shard over the eager graph;
// positive values are clamped to a 256-byte floor. Production guidance:
// a few MiB; tests sweep tiny values to park seams on adversarial
// constructs.
func WithShardBytes(n int) Option {
	return func(d *Disassembler) {
		if n > 0 && n < minShardBytes {
			n = minShardBytes
		}
		d.shardBytes = n
	}
}

// ShardBytes returns the configured shard size (0 = sharding disabled).
func (d *Disassembler) ShardBytes() int { return d.shardBytes }

// Disassembler is a configured metadata-free disassembly pipeline. It is
// safe for concurrent use: all per-run state lives on the stack of
// Disassemble.
type Disassembler struct {
	model *stats.Model

	useStats      bool
	useJumpTables bool
	useFloatRuns  bool
	useTier       bool
	flatPrio      bool
	penaltyWeight float64
	threshold     float64
	window        int
	workers       int
	shardBytes    int
}

// Workers returns the effective worker-pool size (see WithWorkers).
func (d *Disassembler) Workers() int {
	if d.workers > 0 {
		return d.workers
	}
	return runtime.GOMAXPROCS(0)
}

// New returns a Disassembler using the given trained model. A nil model is
// allowed only with WithoutStats.
func New(model *stats.Model, opts ...Option) *Disassembler {
	d := &Disassembler{
		model:         model,
		useStats:      true,
		useJumpTables: true,
		useTier:       true,
		penaltyWeight: 1.0,
		window:        8,
	}
	for _, o := range opts {
		o(d)
	}
	if d.model == nil {
		d.useStats = false
	}
	return d
}

// Clone returns a copy of the disassembler with extra options applied —
// the configured base stays untouched, so a caller can derive e.g. a
// serial twin (Clone(WithWorkers(1))) of a shared pipeline.
func (d *Disassembler) Clone(opts ...Option) *Disassembler {
	c := *d
	for _, o := range opts {
		o(&c)
	}
	return &c
}

// HintsFor returns the combined hint list for one section exactly as the
// correction stage would consume it (unsorted): viability and statistical
// scores are recomputed from the graph. Exposed for the verification
// oracle, which checks that the hint stream is deterministic and totally
// ordered.
func (d *Disassembler) HintsFor(g *superset.Graph, entry int) []analysis.Hint {
	viable, _ := analysis.ViabilityRanges(nil, g, ShardPlan(g.Len(), 0), nil)
	var scores []float64
	if d.useStats {
		scores = make([]float64, g.Len())
		d.model.ScoreAllInto(scores, g, d.window)
	}
	hints, _ := d.CollectHints(g, viable, entry, scores)
	return hints
}

// Name implements dis.Engine.
func (d *Disassembler) Name() string { return "probedis" }

// Disassemble classifies one text section. entry is the section-relative
// entry-point offset, or -1 when unknown.
func (d *Disassembler) Disassemble(code []byte, base uint64, entry int) *dis.Result {
	det, _ := d.DisassembleSectionTraceContext(nil, code, base, entry, nil, nil)
	return det.Result
}

// Detail bundles the full pipeline output for callers that need more than
// the classification (listings, CFG consumers, the benchmarks).
type Detail struct {
	Result  *dis.Result
	Graph   *superset.Graph
	Viable  []bool
	Tables  []analysis.JumpTable
	Hints   int
	Outcome *correct.Outcome
	CFG     *cfg.CFG

	// Tier is the settled/contested partition the tiered correction
	// pre-pass derived after the structural commit phase; nil when the
	// run used the single-phase path (WithoutTiering, WithoutStats or
	// WithoutPrioritization).
	Tier *tier.Partition
}

// DisassembleDetail is Disassemble plus all intermediate products.
func (d *Disassembler) DisassembleDetail(code []byte, base uint64, entry int) *Detail {
	det, _ := d.DisassembleSectionTraceContext(nil, code, base, entry, nil, nil)
	return det
}

// finish is the pipeline tail — result emission, function-seed
// extraction and CFG recovery — run on the correction outcome and the
// merged hint stream, both of which are independent of the shard plan.
func (d *Disassembler) finish(ctx context.Context, g *superset.Graph, entry int, viable []bool, tables []analysis.JumpTable, hints []analysis.Hint, statHints int, out *correct.Outcome, part *tier.Partition, sp *obs.Span) (*Detail, error) {
	esp := sp.StartChild("emit")
	res := dis.NewResult(g.Base, g.Len())
	for i, s := range out.State {
		res.IsCode[i] = s == correct.Code
	}
	copy(res.InstStart, out.InstStart)

	// Function recovery.
	seeds := []int{}
	if entry >= 0 {
		seeds = append(seeds, entry)
	}
	for _, h := range hints {
		if h.Kind == analysis.HintCode &&
			(h.Src == "calltarget" || h.Src == "prologue" || h.Src == "entry") {
			seeds = append(seeds, h.Off)
		}
	}
	esp.End()
	fsp := sp.StartChild("cfg")
	c, err := cfg.BuildTraceContext(ctx, g, out.InstStart, seeds, fsp)
	if err != nil {
		fsp.End()
		return nil, err
	}
	res.FuncStarts = c.FuncStarts()
	fsp.Count("blocks", int64(c.NumBlocks()))
	fsp.Count("funcs", int64(len(c.Funcs)))
	fsp.End()

	return &Detail{
		Result:  res,
		Graph:   g,
		Viable:  viable,
		Tables:  tables,
		Hints:   len(hints) + statHints,
		Outcome: out,
		CFG:     c,
		Tier:    part,
	}, nil
}

// CollectHints runs every enabled analysis over a one-shard plan and
// returns the combined hint list (unsorted) plus discovered jump tables —
// the same collector, task order and merge the pipeline uses. scores may
// be nil when the statistical layer is disabled. Exposed for the
// convergence experiment, which replays correction with a bounded hint
// budget.
func (d *Disassembler) CollectHints(g *superset.Graph, viable []bool, entry int, scores []float64) ([]analysis.Hint, []analysis.JumpTable) {
	return d.collectShardHints(nil, g, viable, entry, scores, ShardPlan(g.Len(), 0), nil, newWorkPool(d.Workers()))
}

// scorePool recycles score buffers: the section-length buffer of the
// single-phase path and the contested-bytes buffer of the tiered path
// (see windowScores).
var scorePool sync.Pool

func getScoreBuf(n int) []float64 {
	if v, _ := scorePool.Get().(*[]float64); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]float64, n)
}

func putScoreBuf(s []float64) { scorePool.Put(&s) }
