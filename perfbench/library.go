package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"probedis"
	"probedis/internal/core"
	"probedis/internal/eval"
	"probedis/internal/oracle"
)

// setupStarts is how many cold starts set-up time is the median of.
const setupStarts = 11

// memPassEvery spaces the memory passes of a library workload's timed
// phase; peak_rss_mib is their median peak.
const memPassEvery = 4

// realBatchInputs loads the two pinned real binaries, in a fixed order:
// the order shifts the memory peak of a pass, and these inputs do not
// depend on the seed.
func realBatchInputs() ([]input, error) {
	nm, err := pinnedNM.load()
	if err != nil {
		return nil, err
	}
	libc, err := pinnedLibc.load()
	if err != nil {
		return nil, err
	}
	return []input{{name: "nm", img: nm}, {name: "libc", img: libc}}, nil
}

func runRealBatch(e *env) error {
	in, err := realBatchInputs()
	if err != nil {
		return err
	}
	return runLibrary(e, in)
}

func runTruthCorpus(e *env) error {
	in, err := truthCorpus(e.root, e.seed)
	if err != nil {
		return err
	}
	return runLibrary(e, in)
}

// runLibrary is the untraced run of a library workload: a closed loop
// of one caller making passes over the input set through the public
// DisassembleELFDetail, under the default pipeline configuration.
func runLibrary(e *env, in []input) error {
	setup, err := cliSetup(e)
	if err != nil {
		return err
	}

	// Untimed warm-up: train the model, make one pass whose output is
	// the reference for every timed pass, and touch every input page.
	d := probedis.New(probedis.DefaultModel())
	ref, execBytes := make([][32]byte, len(in)), 0
	var warm [][]core.SectionDetail
	for i, x := range in {
		secs, err := d.DisassembleELFDetail(x.img)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		ref[i] = digest(secs)
		execBytes += sectionBytes(secs)
		warm = append(warm, secs)
	}
	instErr, err := scoreTruth(in, warm)
	if err != nil {
		return err
	}
	warm = nil

	// Every memPassEvery-th pass measures memory instead of time: it
	// starts from a heap returned to the kernel with the resident
	// high-water mark reset, and its peak is read after it.
	var passMS, peakMiB sample
	var busy time.Duration
	// The loop outlasts --seconds only on a machine too slow to fit the
	// passes the tail needs.
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for n := 0; time.Now().Before(deadline) || len(passMS) < tailMin || len(peakMiB) == 0; n++ {
		memPass := n%memPassEvery == memPassEvery-1
		if memPass {
			resetPeakRSS("self")
		} else {
			runtime.GC()
		}
		var pass time.Duration
		var fail error
		for i, x := range in {
			t0 := time.Now()
			secs, err := d.DisassembleELFDetail(x.img)
			pass += time.Since(t0)
			switch {
			case err != nil:
				fail = fmt.Errorf("%s: %w", x.name, err)
			case digest(secs) != ref[i]:
				fail = fmt.Errorf("%s: output differs from the warm-up pass", x.name)
			}
		}
		e.op(fail)
		if memPass {
			rss, err := peakRSSMiB("self")
			if err != nil {
				return err
			}
			peakMiB = append(peakMiB, rss)
			continue
		}
		passMS = append(passMS, ms(pass))
		busy += pass
	}
	// Correctness, outside the timed region: every structural invariant
	// of the oracle, once per distinct input.
	for _, x := range in {
		rep, err := oracle.CheckELF(d, x.img)
		if err == nil && !rep.OK() {
			err = fmt.Errorf("%s: %d oracle violation(s), first: %v", x.name, len(rep.Violations), rep.Violations[0])
		}
		e.op(err)
	}

	tailV, tailP, err := passMS.tail()
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: %d inputs, %d executable bytes per pass, %d timed passes; tail = p%.1f, %d passes beyond it\n",
		e.workload, len(in), execBytes, len(passMS), tailP, tailBeyond)
	if instErr >= 0 {
		// Deterministic for a seed; the traced run reports it as
		// eval.inst_err_per_1k.
		fmt.Printf("accuracy: %.6g instruction errors per 1k true instructions\n", instErr)
	}
	e.set("setup_s", setup, "s")
	e.set("throughput_mib_s", float64(execBytes)*float64(len(passMS))/(1<<20)/busy.Seconds(), "MiB/s")
	e.set("latency_p50_ms", passMS.median(), "ms")
	e.set("latency_tail_ms", tailV, "ms")
	e.set("peak_rss_mib", peakMiB.median(), "MiB")
	return nil
}

// cliSetup times setupStarts cold runs of the shipped disasm on a
// 576-byte binary, exec to exit, and returns the median in seconds.
func cliSetup(e *env) (float64, error) {
	bin := filepath.Join(e.bin, "disasm")
	arg := filepath.Join(e.root, "testdata", "real", "strtab.elf")
	var s sample
	for i := 0; i < setupStarts; i++ {
		cmd := exec.Command(bin, "-summary", arg)
		cmd.Env = childEnv(e)
		var out bytes.Buffer
		cmd.Stdout = &out
		t0 := time.Now()
		err := cmd.Run()
		dt := time.Since(t0)
		if err == nil && !strings.Contains(out.String(), "section .text") {
			err = fmt.Errorf("disasm printed no .text summary")
		}
		if err != nil {
			return 0, fmt.Errorf("disasm cold start: %w", err)
		}
		e.op(nil)
		s = append(s, dt.Seconds())
	}
	return s.median(), nil
}

// childEnv is the environment for a spawned binary: GOMAXPROCS pinned to
// the CPU count, temp files inside the run's scratch directory.
func childEnv(e *env) []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.nproc), "TMPDIR="+e.tmp)
}

// digest condenses a pass's output (classification, instruction starts,
// functions, blocks and correction tallies) for comparison across passes.
func digest(secs []core.SectionDetail) [32]byte {
	h := sha256.New()
	var buf []byte
	for _, s := range secs {
		det := s.Detail
		res := det.Result
		buf = append(buf[:0], s.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, s.Addr)
		for i := range res.IsCode {
			var b byte
			if res.IsCode[i] {
				b |= 1
			}
			if res.InstStart[i] {
				b |= 2
			}
			buf = append(buf, b)
		}
		for _, f := range res.FuncStarts {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(f))
		}
		for _, v := range []int{det.CFG.NumBlocks(), det.Hints, len(det.Tables),
			det.Outcome.Committed, det.Outcome.Rejected, det.Outcome.Retracted} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func sectionBytes(secs []core.SectionDetail) int {
	n := 0
	for _, s := range secs {
		n += len(s.Data)
	}
	return n
}

// scoreTruth returns instruction errors (false plus missed instruction
// starts) per 1,000 true instructions over every input that carries
// byte-exact truth, or -1 when none does.
func scoreTruth(in []input, out [][]core.SectionDetail) (float64, error) {
	var errs, trueInsts int
	scored := false
	for i, x := range in {
		if x.truth == nil {
			continue
		}
		found := false
		for _, s := range out[i] {
			if s.Addr != x.truthBase {
				continue
			}
			if len(s.Data) != len(x.truth.Classes) {
				return 0, fmt.Errorf("%s: section at %#x has %d bytes, truth %d", x.name, s.Addr, len(s.Data), len(x.truth.Classes))
			}
			m := eval.ScoreTruth(x.truth, s.Detail.Result)
			errs += m.InstFP + m.InstFN
			trueInsts += m.TrueInsts
			found = true
		}
		if !found {
			return 0, fmt.Errorf("%s: no executable section at truth base %#x", x.name, x.truthBase)
		}
		scored = true
	}
	if !scored {
		return -1, nil
	}
	return 1000 * float64(errs) / float64(trueInsts), nil
}

// resetPeakRSS resets the resident high-water mark of a process ("self"
// or a pid), so a later peakRSSMiB covers only what follows. For "self"
// it first returns freed heap to the kernel, as a fresh process would
// start.
func resetPeakRSS(pid string) {
	if pid == "self" {
		debug.FreeOSMemory()
	}
	if err := os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset the RSS high-water mark:", err)
	}
}

// peakRSSMiB reads VmHWM of /proc/<pid>/status in MiB.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
