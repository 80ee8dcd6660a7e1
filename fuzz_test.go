package probedis_test

import (
	"testing"

	probedis "probedis"
	"probedis/internal/oracle"
	"probedis/internal/synth"
)

// FuzzPipeline drives the whole pipeline — superset decode, viability,
// statistical scoring, hint correction, CFG recovery — over raw code bytes
// with an arbitrary entry hint, checking every structural invariant via
// the oracle on each input. Seeds live in testdata/fuzz/FuzzPipeline.
func FuzzPipeline(f *testing.F) {
	for _, cfg := range []synth.Config{
		{Seed: 3, Profile: synth.ProfileO2, NumFuncs: 2},
		{Seed: 4, Profile: synth.ProfileAdversarial, NumFuncs: 2},
		{Seed: 5, Profile: synth.ProfileAdvOverlap, NumFuncs: 2},
		{Seed: 6, Profile: synth.ProfileAdvObf, NumFuncs: 2},
	} {
		bin, err := synth.Generate(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Code, int(bin.Entry-bin.Base))
	}
	f.Add([]byte{0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3}, 0)
	f.Add([]byte{0xe8, 0x00, 0x00, 0x00, 0x00, 0xc3, 0xcc, 0xcc}, -1)
	f.Add([]byte{}, 0)

	d := probedis.New(probedis.DefaultModel())
	f.Fuzz(func(t *testing.T, code []byte, entry int) {
		// Pipeline cost is linear in input size but the instrumented fuzz
		// binary pays a large constant factor; a tight cap keeps exec
		// throughput useful on one core.
		if len(code) > 4<<10 {
			t.Skip("oversized input")
		}
		if entry < -1 || entry >= len(code) {
			entry = -1
		}
		rep := oracle.CheckSection(d, code, 0x401000, entry)
		for _, v := range rep.Violations {
			t.Errorf("oracle: %s", v)
		}
	})
}

// FuzzShardSplit fuzzes the shard seam-resolution contract: for an
// arbitrary input and an arbitrary shard size, the sharded pipeline must
// be byte-identical to the unsharded one and independently satisfy every
// structural invariant (oracle.CheckShards). Seeds are the FuzzPipeline
// corpus — including the adversarial anti-disassembly seeds — each paired
// with an odd shard size so seams start unaligned.
func FuzzShardSplit(f *testing.F) {
	for _, cfg := range []synth.Config{
		{Seed: 3, Profile: synth.ProfileO2, NumFuncs: 2},
		{Seed: 4, Profile: synth.ProfileAdversarial, NumFuncs: 2},
		{Seed: 5, Profile: synth.ProfileAdvOverlap, NumFuncs: 2},
		{Seed: 6, Profile: synth.ProfileAdvObf, NumFuncs: 2},
	} {
		bin, err := synth.Generate(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Code, int(bin.Entry-bin.Base), 311)
		f.Add(bin.Code, int(bin.Entry-bin.Base), 1024)
	}
	f.Add([]byte{0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3}, 0, 256)
	f.Add([]byte{}, 0, 0)

	d := probedis.New(probedis.DefaultModel())
	f.Fuzz(func(t *testing.T, code []byte, entry int, shardBytes int) {
		if len(code) > 4<<10 {
			t.Skip("oversized input")
		}
		if entry < -1 || entry >= len(code) {
			entry = -1
		}
		if shardBytes < 0 {
			shardBytes = -shardBytes
		}
		// Keep the fuzzed size in the multi-shard regime: anything at or
		// above len(code) degenerates to the one-shard plan, which
		// FuzzPipeline already covers.
		if n := len(code); n > 0 && shardBytes >= n {
			shardBytes = shardBytes%n + 1
		}
		rep := oracle.CheckShards(d, code, 0x401000, entry, shardBytes)
		for _, v := range rep.Violations {
			t.Errorf("oracle: %s", v)
		}
	})
}
