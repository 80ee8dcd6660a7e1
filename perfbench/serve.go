package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"probedis"
	"probedis/internal/core"
	"probedis/internal/spool"
)

// The serve-mix traffic design. Every large body is the pinned nm image
// with a key trailer, so all three cache tiers carry the same analysed
// bytes and each tier's median describes one input class.
const (
	population   = 16   // nm keys computed in warm-up, then drawn Zipf
	cacheEntries = 6    // disasmd -cache-entries: below the population
	smallKeys    = 4    // synthetic bodies under the spool threshold
	zipfS        = 1.1  // Zipf exponent over the population
	fixedRate    = 20.0 // offered requests/s of the fixed-rate phase
	// Request i is a new nm key (a miss) when i%newEvery == newEvery/2,
	// and a small synthetic body when i%smallEvery == 0; every other
	// request draws from the population.
	newEvery   = 10
	smallEvery = 20
	// rounds is how many times the fixed-rate and the closed-loop
	// phases alternate; the memory high-water mark has one sample at
	// full load per round.
	rounds = 8
	// fixedShare is the share of --seconds the fixed-rate rounds get;
	// the closed-loop rounds get the rest.
	fixedShare = 0.5
)

// request is one scheduled POST.
type request struct {
	due  time.Duration // from the start of the phase
	key  int
	body func() io.Reader
	size int64
}

// outcome is one request's observed exchange.
type outcome struct {
	req       *request
	status    int
	tier      string
	body      []byte
	late, lat time.Duration // send and completion, from due
	err       error
}

// mix draws the serve-mix request stream from the run's seed.
type mix struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	nm      []byte
	small   [][]byte
	salt    uint64
	n       int // requests drawn so far
	nextNew int
}

func newMix(seed int64, nm []byte, small [][]byte) *mix {
	rng := rand.New(rand.NewSource(seed))
	return &mix{
		rng:     rng,
		zipf:    rand.NewZipf(rng, zipfS, 1, population-1),
		nm:      nm,
		small:   small,
		salt:    rng.Uint64(),
		nextNew: population,
	}
}

// nmKey is the request for nm variant key.
func (m *mix) nmKey(key int) request {
	trailer := keyTrailer(m.salt, key)
	nm := m.nm
	return request{
		key:  key,
		body: func() io.Reader { return io.MultiReader(bytes.NewReader(nm), bytes.NewReader(trailer)) },
		size: int64(len(nm) + len(trailer)),
	}
}

func (m *mix) smallKey(j int) request {
	b := m.small[j]
	return request{
		key:  -1 - j,
		body: func() io.Reader { return bytes.NewReader(b) },
		size: int64(len(b)),
	}
}

// next draws the next request of the stream.
func (m *mix) next() request {
	i := m.n
	m.n++
	switch {
	case i%smallEvery == 0:
		return m.smallKey(m.rng.Intn(len(m.small)))
	case i%newEvery == newEvery/2:
		m.nextNew++
		return m.nmKey(m.nextNew - 1)
	}
	return m.nmKey(int(m.zipf.Uint64()))
}

// schedule draws an open-loop Poisson schedule at rate for dur.
func (m *mix) schedule(rate float64, dur time.Duration) []request {
	var out []request
	t := 0.0
	for {
		t += m.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		r := m.next()
		r.due = due
		out = append(out, r)
	}
}

// loadgen sends schedules open loop from one worker per connection.
type loadgen struct {
	url     string
	clients []*http.Client
}

func newLoadgen(addr string, conns int) *loadgen {
	g := &loadgen{url: "http://" + addr + "/disassemble"}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends reqs in due order. A worker that falls behind sends at once,
// and latency is measured from the due time, so a stall is charged to
// every request it delays.
func (g *loadgen) run(reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				due := start.Add(r.due)
				time.Sleep(time.Until(due))
				o := &out[i]
				o.req = r
				o.late = time.Since(due)
				o.status, o.tier, o.body, o.err = g.post(c, r)
				o.lat = time.Since(due)
			}
		}(c)
	}
	wg.Wait()
	return out
}

func (g *loadgen) post(c *http.Client, r *request) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, g.url, r.body())
	if err != nil {
		return 0, "", nil, err
	}
	req.ContentLength = r.size
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Probedis-Cache"), body, err
}

// summary mirrors disasmd's response body.
type summary struct {
	Sections []sectionSummary `json:"sections"`
}

type sectionSummary struct {
	Name       string `json:"name"`
	Addr       uint64 `json:"addr"`
	Bytes      int    `json:"bytes"`
	CodeBytes  int    `json:"code_bytes"`
	DataBytes  int    `json:"data_bytes"`
	Insts      int    `json:"insts"`
	Funcs      int    `json:"funcs"`
	Blocks     int    `json:"blocks"`
	JumpTables int    `json:"jump_tables"`
	Hints      int    `json:"hints"`
	Committed  int    `json:"committed"`
	Rejected   int    `json:"rejected"`
	Retracted  int    `json:"retracted"`
}

// librarySummary is what disasmd must answer for img, computed in
// process through the public library.
func librarySummary(d *probedis.Disassembler, img []byte) (summary, error) {
	secs, err := d.DisassembleELFDetail(img)
	if err != nil {
		return summary{}, err
	}
	return summarize(secs), nil
}

// summarize reduces a library result to disasmd's response summary.
func summarize(secs []core.SectionDetail) summary {
	var s summary
	s.Sections = make([]sectionSummary, len(secs))
	for i, sec := range secs {
		det := sec.Detail
		res := det.Result
		x := &s.Sections[i]
		x.Name, x.Addr, x.Bytes = sec.Name, sec.Addr, res.Len()
		x.CodeBytes, x.DataBytes = res.CodeBytes(), res.Len()-res.CodeBytes()
		x.Insts, x.Funcs, x.Blocks = res.NumInsts(), len(res.FuncStarts), det.CFG.NumBlocks()
		x.JumpTables, x.Hints = len(det.Tables), det.Hints
		x.Committed, x.Rejected, x.Retracted = det.Outcome.Committed, det.Outcome.Rejected, det.Outcome.Retracted
	}
	return s
}

// checker validates responses: a 200, a known tier, a body equal to the
// library's summary for the image, and every hit or disk body equal byte
// for byte to the miss body of the same key.
type checker struct {
	want     map[int]summary // by key class: nm keys share key 0's entry
	missBody map[int][]byte
}

func (c *checker) expected(key int) summary {
	if key >= 0 {
		return c.want[0]
	}
	return c.want[key]
}

func (c *checker) check(o *outcome) error {
	k := o.req.key
	switch {
	case o.err != nil:
		return fmt.Errorf("key %d: %w", k, o.err)
	case o.status != http.StatusOK:
		return fmt.Errorf("key %d: status %d: %s", k, o.status, bytes.TrimSpace(o.body))
	}
	var got summary
	if err := json.Unmarshal(o.body, &got); err != nil {
		return fmt.Errorf("key %d: response: %w", k, err)
	}
	if !reflect.DeepEqual(got, c.expected(k)) {
		return fmt.Errorf("key %d (%s): response differs from the library's summary", k, o.tier)
	}
	switch o.tier {
	case "miss":
		if prev, ok := c.missBody[k]; ok {
			return fmt.Errorf("key %d: second miss (first body %d bytes)", k, len(prev))
		}
		c.missBody[k] = o.body
	case "hit", "disk":
		prev, ok := c.missBody[k]
		if !ok {
			return fmt.Errorf("key %d: %s before any miss", k, o.tier)
		}
		if !bytes.Equal(prev, o.body) {
			return fmt.Errorf("key %d: %s body differs from its miss body", k, o.tier)
		}
	default:
		return fmt.Errorf("key %d: unexpected X-Probedis-Cache %q", k, o.tier)
	}
	return nil
}

// disasmd is one spawned server.
type disasmd struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been reaped
}

// startDisasmd spawns the shipped disasmd on a free loopback port and
// returns once /healthz answers 200, with the time that took.
func startDisasmd(e *env, args ...string) (*disasmd, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(filepath.Join(e.bin, "disasmd"), append([]string{"-addr", addr}, args...)...)
	cmd.Env = childEnv(e)
	// Should the benchmark itself be killed, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &disasmd{cmd: cmd, addr: addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("disasmd exited before answering /healthz")
		default:
		}
		if time.Since(t0) > 20*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("disasmd did not answer /healthz within 20s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the drain and exit, killing the
// process if it has not exited within 20 seconds.
func (s *disasmd) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// scrape reads disasmd's /metrics into series -> value.
func (s *disasmd) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// serveRun is a warmed-up disasmd with its load generator.
type serveRun struct {
	srv *disasmd
	gen *loadgen
	mix *mix
	chk *checker
	// closedRate is the warm-up stream's closed-loop request rate; it
	// sizes the closed-loop phase.
	closedRate float64
}

// startServeRun builds the inputs and the expected answers, starts
// disasmd with a fresh store and a memory cache smaller than the key
// population, and warms it up: every population key and small body
// once (each a miss), then a stretch of the request stream itself, so
// the cache tiers start timed phases in their steady state.
func startServeRun(e *env) (*serveRun, error) {
	nm, err := pinnedNM.load()
	if err != nil {
		return nil, err
	}
	if err := checkTrailerTransparent(nm); err != nil {
		return nil, err
	}
	small, err := smallBodies(e.seed, smallKeys)
	if err != nil {
		return nil, err
	}
	d := probedis.New(probedis.DefaultModel())
	chk := &checker{want: map[int]summary{}, missBody: map[int][]byte{}}
	if chk.want[0], err = librarySummary(d, nm); err != nil {
		return nil, err
	}
	for j, b := range small {
		if chk.want[-1-j], err = librarySummary(d, b); err != nil {
			return nil, err
		}
	}

	srv, _, err := startDisasmd(e, "-store-dir", filepath.Join(e.tmp, "store"),
		"-cache-entries", strconv.Itoa(cacheEntries))
	if err != nil {
		return nil, err
	}
	r := &serveRun{srv: srv, gen: newLoadgen(srv.addr, e.nproc), mix: newMix(e.seed, nm, small), chk: chk}
	var warm []request
	for k := 0; k < population; k++ {
		warm = append(warm, r.mix.nmKey(k))
	}
	for j := range small {
		warm = append(warm, r.mix.smallKey(j))
	}
	for i, o := range r.gen.run(warm) {
		err := chk.check(&o)
		if err == nil && o.tier != "miss" {
			err = fmt.Errorf("warm-up request %d: tier %q, want miss", i, o.tier)
		}
		e.op(err)
	}
	stream := r.mix.schedule(fixedRate, 3*time.Second)
	for i := range stream {
		stream[i].due = 0
	}
	t0 := time.Now()
	outs := r.gen.run(stream)
	r.closedRate = float64(len(stream)) / time.Since(t0).Seconds()
	r.check(e, outs)
	return r, nil
}

func (r *serveRun) close() {
	r.gen.close()
	r.srv.stop()
}

// check validates every outcome, counting each as one operation.
func (r *serveRun) check(e *env, outs []outcome) {
	for i := range outs {
		e.op(r.chk.check(&outs[i]))
	}
}

// tierLatency splits latencies (ms, from due) by X-Probedis-Cache tier.
func tierLatency(outs []outcome) map[string]sample {
	by := map[string]sample{}
	for _, o := range outs {
		by[o.tier] = append(by[o.tier], ms(o.lat))
	}
	return by
}

// serveSetup times setupStarts cold starts of disasmd, exec until
// /healthz answers 200, each on a fresh store, and returns the median.
func serveSetup(e *env) (float64, error) {
	var s sample
	for i := 0; i < setupStarts; i++ {
		srv, dt, err := startDisasmd(e, "-store-dir", filepath.Join(e.tmp, "setup-store-"+strconv.Itoa(i)))
		if err != nil {
			return 0, err
		}
		srv.stop()
		e.op(nil)
		s = append(s, dt.Seconds())
	}
	return s.median(), nil
}

func runServeMix(e *env) error {
	setup, err := serveSetup(e)
	if err != nil {
		return err
	}
	r, err := startServeRun(e)
	if err != nil {
		return err
	}
	defer r.close()

	// The fixed-rate phase (the latency metrics) and the closed loop
	// (capacity and memory) alternate in rounds, so that each samples
	// the whole run and a drift in the machine's speed reaches both.
	total := time.Duration(e.seconds * float64(time.Second))
	fixedDur := time.Duration(fixedShare * float64(total))
	var outs []outcome
	var cl closedLoop
	for i := 0; i < rounds; i++ {
		o := r.gen.run(r.mix.schedule(fixedRate, fixedDur/rounds))
		r.check(e, o)
		outs = append(outs, o...)
		if err := cl.round(e, r, (total-fixedDur)/rounds); err != nil {
			return err
		}
	}
	var all sample
	for _, o := range outs {
		all = append(all, ms(o.lat))
	}
	tail, tailP, err := all.tail()
	if err != nil {
		return err
	}
	if err := printTiers(outs); err != nil {
		return err
	}
	fmt.Printf("closed loop: %d requests, %.1f/s\n", cl.requests, float64(cl.requests)/cl.busy.Seconds())

	fmt.Printf("workload serve-mix: fixed rate %.0f/s for %v: %d requests; tail = p%.1f, %d requests beyond it\n",
		fixedRate, fixedDur, len(outs), tailP, tailBeyond)
	e.set("setup_s", setup, "s")
	e.set("throughput_mib_s", float64(cl.bodyBytes)/(1<<20)/cl.busy.Seconds(), "MiB/s")
	e.set("latency_p50_ms", all.median(), "ms")
	e.set("latency_tail_ms", tail, "ms")
	e.set("peak_rss_mib", cl.peaks.median(), "MiB")
	return nil
}

// printTiers prints the fixed-rate phase's latency by cache tier, and
// fails when a tier the traffic design relies on never occurred.
func printTiers(outs []outcome) error {
	by := tierLatency(outs)
	var late sample
	for _, o := range outs {
		late = append(late, ms(o.late))
	}
	for _, t := range []string{"miss", "hit", "disk"} {
		if len(by[t]) == 0 {
			return fmt.Errorf("fixed-rate phase saw no %s", t)
		}
		fmt.Printf("tier %-4s: %4d requests, p50 %.3f ms from due time\n", t, len(by[t]), by[t].median())
	}
	fmt.Printf("load generator: p99 send lateness %.3f ms\n", late.quantile(0.99))
	return nil
}

// closedLoop measures the server's capacity for the request mix: the
// stream sent back to back, one request in flight per connection. Its
// rate is the request-body bytes served per second of busy time. The
// server's resident high-water mark is read after every round, at full
// load.
type closedLoop struct {
	requests  int
	bodyBytes int64
	busy      time.Duration
	peaks     sample
}

// round sends dur's worth of the stream at the warm-up's closed-loop
// rate, back to back.
func (c *closedLoop) round(e *env, r *serveRun, dur time.Duration) error {
	reqs := r.mix.schedule(r.closedRate, dur)
	for i := range reqs {
		reqs[i].due = 0
		c.bodyBytes += reqs[i].size
	}
	pid := strconv.Itoa(r.srv.cmd.Process.Pid)
	resetPeakRSS(pid)
	t0 := time.Now()
	outs := r.gen.run(reqs)
	c.busy += time.Since(t0)
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return err
	}
	c.peaks = append(c.peaks, rss)
	c.requests += len(reqs)
	r.check(e, outs)
	return nil
}

func traceServeMix(e *env) error {
	total := time.Duration(e.seconds * float64(time.Second))
	nm, err := pinnedNM.load()
	if err != nil {
		return err
	}
	// Library layers on the miss path's input, in process.
	v, err := libraryLedger(e, []input{{name: "nm", img: nm}}, (total * 3 / 10).Seconds(), false)
	if err != nil {
		return err
	}

	r, err := startServeRun(e)
	if err != nil {
		return err
	}
	defer r.close()
	before, err := r.srv.scrape()
	if err != nil {
		return err
	}
	// Sample the admission queue while the fixed-rate phase runs.
	var depth sample
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if m, err := r.srv.scrape(); err == nil {
				depth = append(depth, m["probedis_queue_waiting"])
			}
		}
	}()
	fixedDur := time.Duration(fixedShare * float64(total))
	outs := r.gen.run(r.mix.schedule(fixedRate, fixedDur))
	close(stop)
	<-sampled
	r.check(e, outs)
	after, err := r.srv.scrape()
	if err != nil {
		return err
	}

	if err := printTiers(outs); err != nil {
		return err
	}
	tiers := map[string]int{}
	spilled, shed := 0, 0
	for _, o := range outs {
		tiers[o.tier]++
		if o.req.size > spool.DefaultThreshold {
			spilled++
		}
		if o.status == http.StatusTooManyRequests {
			shed++
		}
	}
	n := float64(len(outs))
	v["serve.mem_hit_share"] = float64(tiers["hit"]) / n
	v["serve.disk_hit_share"] = float64(tiers["disk"]) / n
	v["serve.miss_share"] = float64(tiers["miss"]) / n
	if tiers["miss"] > 0 {
		runs := after["probedis_pipeline_runs_total"] - before["probedis_pipeline_runs_total"]
		v["serve.pipeline_runs_per_miss"] = runs / float64(tiers["miss"])
	}
	v["serve.queue_depth_mean"] = depth.mean()
	v["serve.shed_per_1k"] = 1000 * float64(shed) / n
	v["spool.spill_share"] = float64(spilled) / n
	v["store.evictions"] = after["probedis_store_evictions_total"]
	v["store.corruptions"] = after["probedis_store_corruptions_total"]
	if after["probedis_store_corruptions_total"] != 0 {
		e.fail(fmt.Errorf("disasmd reported %v store corruptions", after["probedis_store_corruptions_total"]))
	}

	// Spool and store, timed in process around the layer calls on the
	// request bodies and the response bodies of the traffic.
	bodies := [][]byte{nmKeyBody(r.mix, 0)}
	for j := range r.mix.small {
		bodies = append(bodies, r.mix.small[j])
	}
	results := [][]byte{r.chk.missBody[0]}
	for j := range r.mix.small {
		results = append(results, r.chk.missBody[-1-j])
	}
	timeSpool(e, bodies, v, total/10)
	if _, err := timeStore(e, results, v, total/10); err != nil {
		return err
	}
	e.printLayers(v)
	return nil
}

// nmKeyBody is the whole request body of nm variant key.
func nmKeyBody(m *mix, key int) []byte {
	b, _ := io.ReadAll(m.nmKey(key).body())
	return b
}
