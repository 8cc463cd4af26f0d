package kv

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// TestClusterBatchReuseAfterWrite: a cluster Write returns at W acks
// while the last replica's request may still be in flight. A caller that
// reuses its Batch right away (Reset recycles the arena) must not change
// what that straggler sends: every replica ends up with exactly the
// written keys. Under -race, a straggler still reading the caller's arena
// is reported directly.
func TestClusterBatchReuseAfterWrite(t *testing.T) {
	backing, addrs := serveClusterNodes(t)
	eng, err := DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ctx := context.Background()
	const rounds, perBatch = 200, 8
	var b Batch
	for r := 0; r < rounds; r++ {
		b.Reset()
		for j := 0; j < perBatch; j++ {
			b.Put([]byte(fmt.Sprintf("user-%04d-%d", r, j)), []byte("v"))
		}
		if err := eng.Write(ctx, &b); err != nil {
			t.Fatal(err)
		}
		// Reuse the arena at once, with keys that are never written.
		b.Reset()
		for j := 0; j < perBatch; j++ {
			b.Put([]byte(fmt.Sprintf("junk-%04d-%d", r, j)), []byte("x"))
		}
	}
	// Close waits for the stragglers.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i, be := range backing {
		it, err := be.NewIterator(ctx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; it.Valid(); it.Next() {
			switch {
			case bytes.HasPrefix(it.Key(), []byte("user-")):
				n++
			case it.Key()[0] != 0: // the cluster's own keys start with 0
				t.Errorf("replica %d holds key %q, which was never written", i, it.Key())
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if n != rounds*perBatch {
			t.Errorf("replica %d holds %d written keys, want %d", i, n, rounds*perBatch)
		}
	}
}
