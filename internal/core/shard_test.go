package core

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestShardedBroadcastScratch is the race regression for the PR-5
// broadcast arrival buffer: the old code kept one lazily-grown buffer per
// DL group, which two lanes flooding at the same wall-clock moment would
// share. The per-shard scratch must hand distinct shards distinct,
// fully-zeroed buffers that are safe to use concurrently — this test
// fails under -race on the old shared-buffer code path.
func TestShardedBroadcastScratch(t *testing.T) {
	var s arrivalScratch
	const shards, n = 4, 64
	// Warm-up mirrors real lane startup: each shard's buffer is created
	// before concurrent windows begin (in merged mode creation is already
	// serialized; parallel models must pre-touch or partition creation).
	for shard := 0; shard < shards; shard++ {
		s.forShard(shard, n)
	}
	var wg sync.WaitGroup
	for shard := 0; shard < shards; shard++ {
		shard := shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				b := s.forShard(shard, n)
				if len(b) != n {
					t.Errorf("shard %d: len %d, want %d", shard, len(b), n)
					return
				}
				for i := range b {
					if b[i] != 0 {
						t.Errorf("shard %d: reused buffer not zeroed at %d", shard, i)
						return
					}
					b[i] = sim.Time(shard*1000 + i)
				}
				for i := range b {
					if b[i] != sim.Time(shard*1000+i) {
						t.Errorf("shard %d: slot %d overwritten to %d", shard, i, b[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedBroadcastScratchGrows pins the resize path: a shard that
// floods a bigger group gets a grown buffer, and shrinking requests reuse
// the capacity with the tail invisible.
func TestShardedBroadcastScratchGrows(t *testing.T) {
	var s arrivalScratch
	small := s.forShard(0, 4)
	small[3] = 7
	big := s.forShard(0, 16)
	if len(big) != 16 {
		t.Fatalf("grown buffer len %d, want 16", len(big))
	}
	for i, v := range big {
		if v != 0 {
			t.Fatalf("grown buffer not zeroed at %d: %d", i, v)
		}
	}
	again := s.forShard(0, 4)
	if len(again) != 4 || again[3] != 0 {
		t.Fatalf("shrunk reuse: len %d, [3]=%d, want 4, 0", len(again), again[3])
	}
}
