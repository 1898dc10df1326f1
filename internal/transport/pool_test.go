package transport

import (
	"testing"
	"time"
)

// TestBufSizes: GetBuf returns exactly n bytes with the capacity of n's
// size class, or n outright above the largest class; CopyBuf copies into
// such a buffer.
func TestBufSizes(t *testing.T) {
	for _, c := range []struct{ n, cap int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024},
		{1 << 20, 1 << 20}, {1<<20 + 1, 2 << 20}, {4 << 20, 4 << 20}, {4<<20 + 1, 4<<20 + 1},
	} {
		bp := GetBuf(c.n)
		if len(*bp) != c.n || cap(*bp) != c.cap {
			t.Errorf("GetBuf(%d): len %d cap %d, want len %d cap %d", c.n, len(*bp), cap(*bp), c.n, c.cap)
		}
		PutBuf(bp)
	}
	if CopyBuf(nil) != nil {
		t.Error("CopyBuf(nil) != nil")
	}
	if bp := CopyBuf([]byte{1, 2, 3}); string(*bp) != "\x01\x02\x03" || cap(*bp) != 64 {
		t.Errorf("CopyBuf: %v cap %d", *bp, cap(*bp))
	}
}

// TestPutBufIgnoresForeign: PutBuf accepts nil and never pools a buffer
// whose capacity is not a class size, so GetBuf cannot hand out a buffer
// shorter than its class promises.
func TestPutBufIgnoresForeign(t *testing.T) {
	PutBuf(nil)
	for i := 0; i < 100; i++ {
		odd := make([]byte, 100)
		PutBuf(&odd)
		big := make([]byte, 8<<20)
		PutBuf(&big)
	}
	for i := 0; i < 100; i++ {
		if bp := GetBuf(100); cap(*bp) != 128 {
			t.Fatalf("GetBuf(100) returned cap %d, want 128", cap(*bp))
		}
	}
}

// TestTimerPool: a stopped timer is reused without a stale tick, and a
// fired one is never pooled.
func TestTimerPool(t *testing.T) {
	tm := StartTimer(time.Hour)
	StopTimer(tm)
	tm = StartTimer(time.Millisecond)
	<-tm.C
	StopTimer(tm) // fired: dropped
	tm = StartTimer(50 * time.Millisecond)
	defer StopTimer(tm)
	select {
	case <-tm.C:
		t.Fatal("pooled timer delivered a stale tick")
	case <-time.After(10 * time.Millisecond):
	}
}
