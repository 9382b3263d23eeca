package prefetch

import (
	"testing"
	"testing/quick"
)

func TestStridePredictorLearnsConstantStride(t *testing.T) {
	p := NewStridePredictor(DefaultConfig())
	const pc = 0x100
	addr := uint64(0x1000)
	var stride int64
	var confident bool
	for i := 0; i < 10; i++ {
		stride, confident = p.Observe(pc, addr)
		addr += 64
	}
	if !confident || stride != 64 {
		t.Fatalf("stride=%d confident=%t after 10 constant-stride loads", stride, confident)
	}
}

func TestStridePredictorNotConfidentOnRandom(t *testing.T) {
	p := NewStridePredictor(DefaultConfig())
	x := uint64(99)
	for i := 0; i < 100; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if _, confident := p.Observe(0x100, x); confident {
			t.Fatal("random addresses produced a confident stride")
		}
	}
}

func TestStridePredictorRecovers(t *testing.T) {
	p := NewStridePredictor(DefaultConfig())
	addr := uint64(0)
	for i := 0; i < 8; i++ {
		p.Observe(0x10, addr)
		addr += 64
	}
	// Phase change: new stride. Confidence must decay and re-learn.
	addr = 1 << 20
	var confident bool
	var stride int64
	for i := 0; i < 12; i++ {
		stride, confident = p.Observe(0x10, addr)
		addr += 128
	}
	if !confident || stride != 128 {
		t.Fatalf("did not re-learn new stride: stride=%d confident=%t", stride, confident)
	}
}

func TestStrideZeroNeverConfident(t *testing.T) {
	p := NewStridePredictor(DefaultConfig())
	for i := 0; i < 20; i++ {
		if _, confident := p.Observe(0x10, 0x5000); confident {
			t.Fatal("zero stride reported confident")
		}
	}
}

func constFill(lat int64) FillFunc { return func(uint64) int64 { return lat } }

func TestBuffersAllocateAndHit(t *testing.T) {
	b := NewBuffers(DefaultConfig())
	b.Allocate(100, 1, 0, constFill(50))
	ready, hit := b.Probe(101, 10, constFill(50))
	if !hit {
		t.Fatal("prefetched line not found")
	}
	if ready != 50 {
		t.Fatalf("ready = %d, want 50 (prefetch issued at 0)", ready)
	}
}

func TestBuffersMissOutsideStream(t *testing.T) {
	b := NewBuffers(DefaultConfig())
	b.Allocate(100, 1, 0, constFill(10))
	if _, hit := b.Probe(50, 5, constFill(10)); hit {
		t.Fatal("unrelated line hit a stream buffer")
	}
	if _, hit := b.Probe(100, 5, constFill(10)); hit {
		t.Fatal("the trigger line itself should not be in the buffer (prefetch starts one stride ahead)")
	}
}

func TestBuffersConsumeAndExtend(t *testing.T) {
	cfg := DefaultConfig()
	b := NewBuffers(cfg)
	b.Allocate(100, 1, 0, constFill(10))
	// Hit the 3rd entry (line 103): entries 101-103 are consumed and the
	// buffer extends to keep cfg.Entries lines ahead.
	if _, hit := b.Probe(103, 100, constFill(10)); !hit {
		t.Fatal("line 103 not prefetched")
	}
	// The stream should now cover 104..111.
	if _, hit := b.Probe(111, 200, constFill(10)); !hit {
		t.Fatal("stream did not extend after consumption")
	}
	if _, hit := b.Probe(103, 300, constFill(10)); hit {
		t.Fatal("consumed entry still present")
	}
}

func TestBuffersNegativeStride(t *testing.T) {
	b := NewBuffers(DefaultConfig())
	b.Allocate(1000, -1, 0, constFill(10))
	if _, hit := b.Probe(999, 50, constFill(10)); !hit {
		t.Fatal("descending stream not prefetched")
	}
}

func TestBuffersZeroStrideIgnored(t *testing.T) {
	b := NewBuffers(DefaultConfig())
	b.Allocate(100, 0, 0, constFill(10))
	if b.Allocations != 0 {
		t.Fatal("zero-stride allocation accepted")
	}
}

func TestBuffersLRUVictim(t *testing.T) {
	cfg := Config{Buffers: 2, Entries: 4, StrideEntries: 64, MinConfidence: 2}
	b := NewBuffers(cfg)
	b.Allocate(100, 1, 0, constFill(10))
	b.Allocate(200, 1, 0, constFill(10))
	// Touch stream 1 so stream 2 is LRU.
	b.Probe(101, 20, constFill(10))
	b.Allocate(300, 1, 30, constFill(10))
	if _, hit := b.Probe(201, 40, constFill(10)); hit {
		t.Fatal("LRU stream survived eviction")
	}
	if _, hit := b.Probe(102, 40, constFill(10)); !hit {
		t.Fatal("recently used stream was evicted")
	}
}

func TestBuffersNoDuplicateStreams(t *testing.T) {
	b := NewBuffers(DefaultConfig())
	b.Allocate(100, 1, 0, constFill(10))
	b.Allocate(100, 1, 5, constFill(10)) // same stream again
	if b.Allocations != 1 {
		t.Fatalf("duplicate stream allocated: %d allocations", b.Allocations)
	}
}

func TestBuffersReset(t *testing.T) {
	b := NewBuffers(DefaultConfig())
	b.Allocate(100, 1, 0, constFill(10))
	b.Reset(DefaultConfig())
	if _, hit := b.Probe(101, 10, constFill(10)); hit {
		t.Fatal("reset buffer still hits")
	}
	if b.Allocations != 0 || b.Prefetches != 0 || b.Hits != 0 {
		t.Fatalf("reset kept statistics: allocations=%d prefetches=%d hits=%d", b.Allocations, b.Prefetches, b.Hits)
	}
}

func TestBuffersInFlightHitWaits(t *testing.T) {
	b := NewBuffers(DefaultConfig())
	b.Allocate(100, 1, 0, constFill(500))
	ready, hit := b.Probe(101, 100, constFill(500))
	if !hit {
		t.Fatal("in-flight prefetch not matched")
	}
	if ready != 500 {
		t.Fatalf("in-flight ready = %d, want 500", ready)
	}
}

func TestQuickStridePredictorConverges(t *testing.T) {
	f := func(pc uint64, start uint64, strideRaw int16) bool {
		stride := int64(strideRaw)
		if stride == 0 {
			stride = 64
		}
		p := NewStridePredictor(DefaultConfig())
		addr := start
		var got int64
		var conf bool
		for i := 0; i < 8; i++ {
			got, conf = p.Observe(pc, addr)
			addr = uint64(int64(addr) + stride)
		}
		return conf && got == stride
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
