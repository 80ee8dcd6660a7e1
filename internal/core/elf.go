package core

import (
	"context"
	"fmt"
	"sync"

	"probedis/internal/ctxutil"
	"probedis/internal/dis"
	"probedis/internal/elfx"
	"probedis/internal/obs"
	"probedis/internal/superset"
)

// SectionResult pairs one executable section with its classification.
type SectionResult struct {
	Name   string
	Addr   uint64
	Result *dis.Result
}

// SectionDetail pairs one executable section with the full pipeline output.
type SectionDetail struct {
	Name   string
	Addr   uint64
	Data   []byte
	Entry  int // section-relative entry offset, -1 when outside the section
	Detail *Detail
}

// DisassembleSection runs the full pipeline on one text section with an
// explicit set of external executable ranges (other text sections of the
// same binary). It is the per-section building block of
// DisassembleELFDetail, exported for multi-section callers and for the
// verification oracle, which uses it to replay a section under deliberately
// wrong extern sets.
func (d *Disassembler) DisassembleSection(code []byte, base uint64, entry int, extern []superset.Range) *Detail {
	det, _ := d.DisassembleSectionTraceContext(nil, code, base, entry, extern, nil)
	return det
}

// DisassembleSectionTrace is DisassembleSection with stage tracing: every
// pipeline stage (superset build, viability, statistical scoring, each
// hint analysis, correction with its sub-phases, CFG recovery) becomes a
// child span of sp. A nil sp runs the exact untraced path.
func (d *Disassembler) DisassembleSectionTrace(code []byte, base uint64, entry int, extern []superset.Range, sp *obs.Span) *Detail {
	det, _ := d.DisassembleSectionTraceContext(nil, code, base, entry, extern, sp)
	return det
}

// DisassembleSectionTraceContext combines tracing and cancellation; it
// is the primitive under every section-level entry point. A nil ctx
// never cancels; a nil sp traces nothing.
func (d *Disassembler) DisassembleSectionTraceContext(ctx context.Context, code []byte, base uint64, entry int, extern []superset.Range, sp *obs.Span) (*Detail, error) {
	return d.disassembleSectionPool(ctx, code, base, entry, extern, sp, nil)
}

// disassembleSectionPool is DisassembleSectionTraceContext with an
// optional request-scoped work pool shared across sections (see
// workPool). Sections whose shard plan has a seam get a windowed graph
// (superset.BuildLazy, O(1) construction — decode cost is paid block by
// block inside the stages that fault them in, so no "superset" span is
// recorded); one-shard sections keep the eager parallel build. Both run
// the one scheduler, Disassembler.run.
func (d *Disassembler) disassembleSectionPool(ctx context.Context, code []byte, base uint64, entry int, extern []superset.Range, sp *obs.Span, pool *workPool) (*Detail, error) {
	sp.SetBytes(int64(len(code)))
	var g *superset.Graph
	if d.shardedFor(len(code)) {
		g = superset.BuildLazy(code, base, d.lazyBlockShift(), d.maxResidentBlocks())
	} else {
		bsp := sp.StartChild("superset")
		var err error
		g, err = superset.BuildContext(ctx, code, base)
		if err != nil {
			if bsp != nil {
				bsp.End()
			}
			return nil, err
		}
		if bsp != nil {
			bsp.SetBytes(int64(len(code)))
			bsp.Count("valid_insts", int64(g.ValidCount()))
			bsp.Count("scan_fallbacks", g.ScanFallbackCount())
			bsp.End()
		}
	}
	g.SetExtern(extern)
	return d.run(ctx, g, entry, sp, pool)
}

// DisassembleELFDetail is DisassembleELF returning the full pipeline
// detail per section. Other executable sections are registered as
// legitimate cross-section branch targets (PLT stubs, .init/.fini), so
// inter-section tail calls do not poison viability.
//
// Sections are independent pipeline runs, so they are fanned out to the
// disassembler's worker pool (see WithWorkers) and reassembled in section
// order; the output is byte-identical to the serial path.
func (d *Disassembler) DisassembleELFDetail(img []byte) ([]SectionDetail, error) {
	return d.DisassembleELFTraceContext(nil, img, nil)
}

// DisassembleELFDetailContext is DisassembleELFDetail with cooperative
// cancellation: once ctx is done, queued sections are skipped, running
// sections abort at their next checkpoint (stage boundaries, plus every
// few thousand offsets inside the superset and correction hot loops),
// and the call returns (nil, ctx.Err()). No partial section list is ever
// returned.
func (d *Disassembler) DisassembleELFDetailContext(ctx context.Context, img []byte) ([]SectionDetail, error) {
	return d.DisassembleELFTraceContext(ctx, img, nil)
}

// DisassembleELFTrace is DisassembleELFDetail with stage tracing: ELF
// parsing and every per-section pipeline run become child spans of sp
// (one "section" span per executable section, labelled with the section
// name, with the stage spans nested under it). A nil sp runs the exact
// untraced path. Under a parallel worker pool the section spans overlap
// in time, so sibling durations may sum past the root's wall time; run
// with WithWorkers(1) for an exact serial accounting.
func (d *Disassembler) DisassembleELFTrace(img []byte, sp *obs.Span) ([]SectionDetail, error) {
	return d.DisassembleELFTraceContext(nil, img, sp)
}

// DisassembleELFTraceContext combines tracing and cancellation; it is
// the primitive under every whole-image entry point (the disasmd service
// calls it with the per-request context and trace). A nil ctx never
// cancels; a nil sp traces nothing.
func (d *Disassembler) DisassembleELFTraceContext(ctx context.Context, img []byte, sp *obs.Span) ([]SectionDetail, error) {
	psp := sp.StartChild("parse")
	psp.SetBytes(int64(len(img)))
	f, err := elfx.Parse(img)
	psp.End()
	if err != nil {
		return nil, err
	}
	return d.disassembleFile(ctx, f, sp)
}

// disassembleFile runs the per-section pipeline over a parsed image.
func (d *Disassembler) disassembleFile(ctx context.Context, f *elfx.File, sp *obs.Span) ([]SectionDetail, error) {
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	secs := f.ExecutableSections()
	if len(secs) == 0 {
		return nil, fmt.Errorf("core: no executable sections")
	}

	// Per-section inputs are derived from the bytes actually present
	// (len(Data)), never from the header's Size claim: a truncated or
	// NOBITS executable section would otherwise yield an entry offset
	// beyond the section bytes, and phantom extern ranges that legitimize
	// branches into memory the image does not back.
	entries := make([]int, len(secs))
	externs := make([][]superset.Range, len(secs))
	for i, s := range secs {
		entries[i] = -1
		if f.Entry >= s.Addr && f.Entry-s.Addr < uint64(len(s.Data)) {
			entries[i] = int(f.Entry - s.Addr)
		}
		for j, o := range secs {
			if j != i && len(o.Data) > 0 {
				externs[i] = append(externs[i], superset.Range{
					Start: o.Addr, End: o.Addr + uint64(len(o.Data)),
				})
			}
		}
	}

	// One work-stealing pool per request: shard tasks from any section
	// can claim a slot freed by another section finishing, so a giant
	// section no longer serializes on a single section worker.
	pool := newWorkPool(d.Workers())
	out := make([]SectionDetail, len(secs))
	runSection := func(i int) error {
		if ctxutil.Cancelled(ctx) {
			return ctxutil.Err(ctx)
		}
		s := &secs[i]
		ssp := sp.StartChild("section")
		ssp.SetLabel(s.Name)
		det, err := d.disassembleSectionPool(ctx, s.Data, s.Addr, entries[i], externs[i], ssp, pool)
		ssp.End()
		if err != nil {
			return err
		}
		out[i] = SectionDetail{
			Name:   s.Name,
			Addr:   s.Addr,
			Data:   s.Data,
			Entry:  entries[i],
			Detail: det,
		}
		return nil
	}

	workers := d.Workers()
	if workers > len(secs) {
		workers = len(secs)
	}
	if workers <= 1 {
		for i := range secs {
			if err := runSection(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// Per-section errors are cancellations only; runSection
				// also short-circuits once the context is done, so
				// remaining queued sections drain without work.
				runSection(i)
			}
		}()
	}
feed:
	for i := range secs {
		select {
		case idx <- i:
		case <-ctxDone(ctx):
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	return out, nil
}

// ctxDone is ctx.Done() for possibly-nil contexts (a nil channel never
// receives, so the select above reduces to the plain send).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// DisassembleELF parses a (possibly fully stripped) ELF64 image and
// disassembles every executable section.
func (d *Disassembler) DisassembleELF(img []byte) ([]SectionResult, error) {
	details, err := d.DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		return nil, err
	}
	out := make([]SectionResult, len(details))
	for i, s := range details {
		out[i] = SectionResult{Name: s.Name, Addr: s.Addr, Result: s.Detail.Result}
	}
	return out, nil
}
