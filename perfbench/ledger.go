package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"probedis"
	"probedis/internal/core"
	"probedis/internal/obs"
	"probedis/internal/spool"
	"probedis/internal/store"
)

// layerMetrics is the per-layer table, in print order. Every traced
// run prints every row; a row a workload has no source for (serve on
// the library workloads, accuracy without truth) reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"elfx.parse_ns_per_byte", "ns/B"},
	{"superset.ns_per_byte", "ns/B"},
	{"superset.alloc_bytes_per_byte", "B/B"},
	{"superset.fallback_per_1k", "1/1k"},
	{"analysis.viability_ns_per_byte", "ns/B"},
	{"analysis.viability_alloc_bytes_per_byte", "B/B"},
	{"analysis.viability_allocs_per_kib", "1/KiB"},
	{"analysis.jumptable_ns_per_byte", "ns/B"},
	{"analysis.calltarget_ns_per_byte", "ns/B"},
	{"analysis.prologue_ns_per_byte", "ns/B"},
	{"analysis.datapattern_ns_per_byte", "ns/B"},
	{"analysis.literalpool_ns_per_byte", "ns/B"},
	{"analysis.hints_per_kib", "1/KiB"},
	{"tier.settled_share", "share"},
	{"tier.windows_per_mib", "1/MiB"},
	{"stats.ns_per_contested_byte", "ns/B"},
	{"correct.structural_ns_per_byte", "ns/B"},
	{"correct.contested_ns_per_byte", "ns/B"},
	{"correct.retract_ns_per_byte", "ns/B"},
	{"correct.gapfill_ns_per_byte", "ns/B"},
	{"correct.alloc_bytes_per_byte", "B/B"},
	{"correct.commit_share", "share"},
	{"correct.retracted_per_1k_commits", "1/1k"},
	{"cfg.leaders_ns_per_byte", "ns/B"},
	{"cfg.blocks_ns_per_byte", "ns/B"},
	{"cfg.funcs_ns_per_byte", "ns/B"},
	{"cfg.allocs_per_kib", "1/KiB"},
	{"cfg.alloc_bytes_per_byte", "B/B"},
	{"dis.emit_ns_per_byte", "ns/B"},
	{"core.alloc_bytes_per_byte", "B/B"},
	{"spool.mem_ns_per_byte", "ns/B"},
	{"spool.spill_ns_per_byte", "ns/B"},
	{"spool.spill_share", "share"},
	{"store.get_p50_ms", "ms"},
	{"store.put_p50_ms", "ms"},
	{"store.evictions", "count"},
	{"store.corruptions", "count"},
	{"serve.mem_hit_share", "share"},
	{"serve.disk_hit_share", "share"},
	{"serve.miss_share", "share"},
	{"serve.pipeline_runs_per_miss", "1/miss"},
	{"serve.queue_depth_mean", "count"},
	{"serve.shed_per_1k", "1/1k"},
	{"eval.inst_err_per_1k", "1/1k"},
	{"obs.traced_time_ratio", "x"},
	{"obs.stage_coverage_share", "share"},
}

// printLayers sets every per-layer metric, in table order.
func (e *env) printLayers(v map[string]float64) {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
		e.set(m.name, v[m.name], m.unit)
	}
	for name := range v {
		if !known[name] {
			e.fail(fmt.Errorf("layer metric %s is not in the table", name))
		}
	}
}

// minCoverage is the share of a traced pass's wall time the stage spans'
// self times must account for; less means work the ledger cannot place.
const minCoverage = 0.95

func traceRealBatch(e *env) error {
	in, err := realBatchInputs()
	if err != nil {
		return err
	}
	return traceLibrary(e, in)
}

func traceTruthCorpus(e *env) error {
	in, err := truthCorpus(e.root, e.seed)
	if err != nil {
		return err
	}
	return traceLibrary(e, in)
}

// traceLibrary is the traced run of a library workload: the stage
// ledger for most of the time, the accuracy against truth, and spool
// and store timed on the workload's own images and result summaries,
// the bodies a service would ingest and keep for these inputs.
func traceLibrary(e *env, in []input) error {
	v, err := libraryLedger(e, in, 0.8*e.seconds, true)
	if err != nil {
		return err
	}
	d := probedis.New(probedis.DefaultModel())
	var out [][]core.SectionDetail
	var bodies, results [][]byte
	spilled := 0
	for _, x := range in {
		secs, err := d.DisassembleELFDetail(x.img)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		out = append(out, secs)
		res, err := json.Marshal(summarize(secs))
		if err != nil {
			return err
		}
		bodies, results = append(bodies, x.img), append(results, res)
		if len(x.img) > spool.DefaultThreshold {
			spilled++
		}
	}
	instErr, err := scoreTruth(in, out)
	if err != nil {
		return err
	}
	if instErr >= 0 {
		v["eval.inst_err_per_1k"] = instErr
	}
	out = nil
	v["spool.spill_share"] = float64(spilled) / float64(len(in))
	dur := time.Duration(0.1 * e.seconds * float64(time.Second))
	timeSpool(e, bodies, v, dur)
	st, err := timeStore(e, results, v, dur)
	if err != nil {
		return err
	}
	v["store.evictions"] = float64(st.EvictionCount())
	v["store.corruptions"] = float64(st.CorruptionCount())
	if st.CorruptionCount() != 0 {
		e.fail(fmt.Errorf("store reported %d corruptions", st.CorruptionCount()))
	}
	e.printLayers(v)
	return nil
}

// timeSpool spools the bodies in rounds for dur. A round spools every
// body once kept in memory and once spilled to a mapped temp file,
// whatever its size, so both ingest paths are timed on every workload.
// A time covers spool.Spool, View and Close; each path's row is the
// median over rounds of its time per body byte, so large bodies weigh
// as much as their bytes.
func timeSpool(e *env, bodies [][]byte, v map[string]float64, dur time.Duration) {
	size := 0
	for _, b := range bodies {
		size += len(b)
	}
	var mem, spill sample
	deadline := time.Now().Add(dur)
	for len(mem) == 0 || time.Now().Before(deadline) {
		for _, toFile := range []bool{false, true} {
			var busy time.Duration
			for _, body := range bodies {
				dt, err := spoolOnce(e.tmp, body, toFile)
				busy += dt
				e.op(err)
			}
			ns := float64(busy.Nanoseconds()) / float64(size)
			if toFile {
				spill = append(spill, ns)
			} else {
				mem = append(mem, ns)
			}
		}
	}
	v["spool.mem_ns_per_byte"] = mem.median()
	v["spool.spill_ns_per_byte"] = spill.median()
}

// spoolOnce spools body in memory or to a file in dir, checks that it
// took that path and kept every byte, and returns the time it took.
func spoolOnce(dir string, body []byte, toFile bool) (time.Duration, error) {
	cfg := spool.Config{Dir: dir, Threshold: int64(len(body))}
	if toFile {
		cfg.Threshold = 1
	}
	t0 := time.Now()
	b, err := spool.Spool(cfg, bytes.NewReader(body))
	if err != nil {
		return time.Since(t0), err
	}
	spilled := b.Spilled()
	view, err := b.View()
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	dt := time.Since(t0)
	switch {
	case err != nil:
	case spilled != toFile:
		err = fmt.Errorf("%d-byte body: spilled=%v, want %v", len(body), spilled, toFile)
	case len(view) != len(body):
		err = fmt.Errorf("spooled %d bytes, sent %d", len(view), len(body))
	}
	return dt, err
}

// timeStore publishes and reads back the result bodies in turn, each
// under a fresh key, for dur, in a store of its own with disasmd's
// pipeline fingerprint. It returns the store for its counters.
func timeStore(e *env, bodies [][]byte, v map[string]float64, dur time.Duration) (*store.Store, error) {
	st, err := store.Open(filepath.Join(e.tmp, "ownstore"), 0, core.PipelineFingerprint)
	if err != nil {
		return nil, err
	}
	var put, get sample
	deadline := time.Now().Add(dur)
	for i := 0; i < len(bodies) || time.Now().Before(deadline); i++ {
		body := bodies[i%len(bodies)]
		var key [32]byte
		binary.LittleEndian.PutUint64(key[:], uint64(e.seed))
		binary.LittleEndian.PutUint64(key[8:], uint64(i))
		t0 := time.Now()
		err := st.Put(key, body)
		put = append(put, ms(time.Since(t0)))
		if err == nil {
			t0 = time.Now()
			got, ok := st.Get(key)
			get = append(get, ms(time.Since(t0)))
			if !ok || !bytes.Equal(got, body) {
				err = fmt.Errorf("store: entry %d did not read back", i)
			}
		}
		e.op(err)
	}
	v["store.put_p50_ms"] = put.median()
	v["store.get_p50_ms"] = get.median()
	return st, nil
}

// fold is one traced pass reduced to per-stage totals.
type fold struct {
	self       map[string]time.Duration // self time by span name
	allocs     map[string]uint64        // allocations by span name, children included
	allocBytes map[string]uint64
	counters   map[string]int64 // "<span>.<counter>"
	staged     time.Duration    // self time of every stage span
}

// foldTrace sums a pass's span tree by span name. The root is the pass
// and each "section" span a section's run; neither is a stage, so
// their self time is what the stage spans leave unexplained.
func foldTrace(root *obs.Span) fold {
	f := fold{
		self:       map[string]time.Duration{},
		allocs:     map[string]uint64{},
		allocBytes: map[string]uint64{},
		counters:   map[string]int64{},
	}
	root.Walk(func(sp *obs.Span, depth int) {
		self := sp.Dur - sp.ChildSum()
		f.self[sp.Name] += self
		f.allocs[sp.Name] += sp.Allocs
		f.allocBytes[sp.Name] += sp.AllocBytes
		for _, c := range sp.Counters() {
			f.counters[sp.Name+"."+c.Name] += c.Value
		}
		if depth > 0 && sp.Name != "section" {
			f.staged += self
		}
	})
	return f
}

// libraryLedger makes serial passes over in through the public
// DisassembleELFTrace for the given time, rotating three kinds: an
// untraced pass, a pass traced for time only, and a pass traced with
// allocation counts (whose memory statistics reads would distort the
// times). Times are medians over passes of self time per section byte.
// checkCoverage fails the run when stage self times leave more than
// 1-minCoverage of a traced pass unexplained.
func libraryLedger(e *env, in []input, seconds float64, checkCoverage bool) (map[string]float64, error) {
	d := probedis.New(probedis.DefaultModel(), probedis.WithWorkers(1))
	var execBytes float64
	for _, x := range in {
		secs, err := d.DisassembleELFDetail(x.img)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.name, err)
		}
		execBytes += float64(sectionBytes(secs))
	}

	tracedPass := func(root *obs.Span) (time.Duration, fold) {
		runtime.GC()
		t0 := time.Now()
		var err error
		for _, x := range in {
			if _, perr := d.DisassembleELFTrace(x.img, root); perr != nil && err == nil {
				err = fmt.Errorf("%s: %w", x.name, perr)
			}
		}
		root.End()
		wall := time.Since(t0)
		e.op(err)
		if root == nil {
			return wall, fold{}
		}
		return wall, foldTrace(root)
	}

	timeNS := map[string]sample{}
	var plain, traced, coverage sample
	var alloc fold
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for kind := 0; kind < 3 || time.Now().Before(deadline); kind++ {
		switch kind % 3 {
		case 0:
			wall, _ := tracedPass(nil)
			plain = append(plain, wall.Seconds())
		case 1:
			wall, f := tracedPass(obs.NewTraceTimeOnly("pass"))
			traced = append(traced, wall.Seconds())
			coverage = append(coverage, float64(f.staged)/float64(wall))
			for name, d := range f.self {
				timeNS[name] = append(timeNS[name], float64(d.Nanoseconds())/execBytes)
			}
		case 2:
			_, alloc = tracedPass(obs.NewTrace("pass"))
		}
	}

	v := map[string]float64{}
	ns := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			if s, ok := timeNS[n]; ok {
				t += s.median()
			}
		}
		return t
	}
	kib, mib := execBytes/1024, execBytes/(1<<20)
	c := alloc.counters
	v["elfx.parse_ns_per_byte"] = ns("parse")
	v["superset.ns_per_byte"] = ns("superset")
	v["superset.alloc_bytes_per_byte"] = float64(alloc.allocBytes["superset"]) / execBytes
	v["superset.fallback_per_1k"] = 1000 * float64(c["superset.scan_fallbacks"]) / execBytes
	v["analysis.viability_ns_per_byte"] = ns("viability")
	v["analysis.viability_alloc_bytes_per_byte"] = float64(alloc.allocBytes["viability"]) / execBytes
	v["analysis.viability_allocs_per_kib"] = float64(alloc.allocs["viability"]) / kib
	for _, a := range []string{"jumptable", "calltarget", "prologue", "datapattern", "literalpool"} {
		v["analysis."+a+"_ns_per_byte"] = ns(a)
	}
	v["analysis.hints_per_kib"] = float64(c["hints.hints"]) / kib
	settled, contested := float64(c["tier.settled"]), float64(c["tier.contested"])
	if settled+contested > 0 {
		v["tier.settled_share"] = settled / (settled + contested)
	}
	v["tier.windows_per_mib"] = float64(c["tier.windows"]) / mib
	if contested > 0 {
		v["stats.ns_per_contested_byte"] = ns("stats") * execBytes / contested
	}
	v["correct.structural_ns_per_byte"] = ns("sort-structural", "commit-structural")
	v["correct.contested_ns_per_byte"] = ns("stathints", "sort-contested", "commit-contested")
	v["correct.retract_ns_per_byte"] = ns("retract")
	v["correct.gapfill_ns_per_byte"] = ns("gapfill")
	v["correct.alloc_bytes_per_byte"] = float64(alloc.allocBytes["correct"]) / execBytes
	committed, rejected := float64(c["correct.committed"]), float64(c["correct.rejected"])
	if committed+rejected > 0 {
		v["correct.commit_share"] = committed / (committed + rejected)
	}
	if committed > 0 {
		v["correct.retracted_per_1k_commits"] = 1000 * float64(c["correct.retracted"]) / committed
	}
	v["cfg.leaders_ns_per_byte"] = ns("leaders")
	v["cfg.blocks_ns_per_byte"] = ns("blocks")
	v["cfg.funcs_ns_per_byte"] = ns("funcs")
	v["cfg.allocs_per_kib"] = float64(alloc.allocs["cfg"]) / kib
	v["cfg.alloc_bytes_per_byte"] = float64(alloc.allocBytes["cfg"]) / execBytes
	v["dis.emit_ns_per_byte"] = ns("emit")
	v["core.alloc_bytes_per_byte"] = float64(alloc.allocBytes["pass"]) / execBytes
	v["obs.traced_time_ratio"] = traced.median() / plain.median()
	v["obs.stage_coverage_share"] = coverage.median()

	fmt.Printf("ledger: %d untraced, %d time-traced passes over %d inputs (%.0f executable bytes); stage self time covers %.2f%% of a traced pass (median)\n",
		len(plain), len(traced), len(in), execBytes, 100*coverage.median())
	if checkCoverage && coverage.median() < minCoverage {
		e.fail(fmt.Errorf("stage self times cover %.2f%% of a traced pass, want >= %.0f%%", 100*coverage.median(), 100*minCoverage))
	}
	return v, nil
}
