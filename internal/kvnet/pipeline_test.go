package kvnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/lsm"
)

// valueFor is the value stored under key in the pipelining tests: a
// response can be checked against the request it answers.
func valueFor(key []byte) []byte { return append([]byte("value-of-"), key...) }

// TestPipelinedClientSharedByManyGoroutines: one Client carries many
// goroutines' requests at once; every response must be the answer to
// the caller's own request.
func TestPipelinedClientSharedByManyGoroutines(t *testing.T) {
	c, _, _ := startServer(t)
	ctx := context.Background()
	const preloaded = 200
	for i := 0; i < preloaded; i++ {
		key := []byte(fmt.Sprintf("pre-%04d", i))
		if err := c.Put(ctx, key, valueFor(key)); err != nil {
			t.Fatal(err)
		}
	}
	const workers, ops = 16, 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				if i%4 == 0 {
					key := []byte(fmt.Sprintf("w%02d-%04d", w, i))
					if err := c.Put(ctx, key, valueFor(key)); err != nil {
						errs <- err
						return
					}
					continue
				}
				key := []byte(fmt.Sprintf("pre-%04d", rng.Intn(preloaded)))
				if i%4 == 2 {
					key = []byte(fmt.Sprintf("w%02d-%04d", w, i-2)) // this worker's own Put
				}
				got, err := c.Get(ctx, key)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", key, err)
					return
				}
				if !bytes.Equal(got, valueFor(key)) {
					errs <- fmt.Errorf("get %s answered %q", key, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !c.Healthy() {
		t.Fatal("connection poisoned by a run with no cancellations")
	}
}

// mutePeer listens on loopback and accepts connections it never reads
// from or answers. It returns the address; the listener and the accepted
// connections close at test cleanup.
func mutePeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
	})
	return ln.Addr().String()
}

// TestQueuedCallerKeepsItsDeadlineBehindWedgedWriter: a peer that stops
// reading wedges the caller holding the write lock in its write. A caller
// queued behind it must still return at its own deadline, and, having put
// nothing on the wire, leave the connection usable.
func TestQueuedCallerKeepsItsDeadlineBehindWedgedWriter(t *testing.T) {
	c, err := Dial(mutePeer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wedged := make(chan error, 1)
	go func() {
		// Far more than the socket buffers hold: the write blocks.
		wedged <- c.Put(context.Background(), []byte("big"), make([]byte, 16<<20))
	}()
	// Wait until the Put holds the write lock.
	for deadline := time.Now().Add(5 * time.Second); len(c.wlock) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the big Put never took the write lock")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	queued := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, []byte("k"))
		queued <- err
	}()
	select {
	case err := <-queued:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("queued Get = %v, want DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued Get still blocked 2s after its 100ms deadline")
	}
	if !c.Healthy() {
		t.Fatal("a request that never reached the wire poisoned the connection")
	}
	select {
	case err := <-wedged:
		t.Fatalf("the wedged Put returned early: %v", err)
	default:
	}
	c.Close()
	select {
	case err := <-wedged:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("wedged Put after Close = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the wedged write")
	}
}

// TestCloseFailsEveryPendingCall: calls waiting for responses that will
// never come all fail promptly with ErrClientClosed when the client is
// closed.
func TestCloseFailsEveryPendingCall(t *testing.T) {
	c, err := Dial(mutePeer(t))
	if err != nil {
		t.Fatal(err)
	}
	const calls = 10
	done := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			_, err := c.Get(context.Background(), []byte(fmt.Sprintf("k%d", i)))
			done <- err
		}(i)
	}
	// Wait until every call is on the wire.
	for deadline := time.Now().Add(5 * time.Second); ; {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == calls {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls pending", n, calls)
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("pending call after Close = %v, want ErrClientClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d pending calls still blocked after Close", calls-i, calls)
		}
	}
}

// TestLastQueuedCallerGivingUpFlushes: a caller that leaves the write
// lock queue flushes the frames the holder before it left in the buffer
// for it, or their callers would wait forever.
func TestLastQueuedCallerGivingUpFlushes(t *testing.T) {
	c, _, _ := startServer(t)
	ctx := context.Background()
	if err := c.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.queued.Add(1) // a caller queued to write after the Get below
	got := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, []byte("k"))
		got <- err
	}()
	// The Get sees a caller behind it and leaves its frame unflushed.
	for deadline := time.Now().Add(5 * time.Second); ; {
		c.wlock <- struct{}{}
		buffered := c.w.Buffered()
		<-c.wlock
		if buffered > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the Get never reached the write buffer")
		}
		time.Sleep(time.Millisecond)
	}
	c.leaveQueue() // the caller behind it gives up instead of writing
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the Get's frame was stranded in the write buffer")
	}
}

// stallingEngine blocks every Put until release is closed.
type stallingEngine struct {
	Engine
	entered chan struct{}
	release chan struct{}
}

func (e *stallingEngine) PutContext(ctx context.Context, key, value []byte) error {
	e.entered <- struct{}{}
	<-e.release
	return e.Engine.PutContext(ctx, key, value)
}

// TestServerFlushesBeforeBlockingRequest: a Get pipelined ahead of a Put
// that stalls is answered while the Put is still stalled; the server
// does not hold a response it owes while a request that can block runs.
func TestServerFlushesBeforeBlockingRequest(t *testing.T) {
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	eng := &stallingEngine{Engine: db, entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	var unstall sync.Once
	defer unstall.Do(func() { close(eng.release) }) // before srv.Close waits for the handler
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Both frames in one write, so the server reads them together.
	get := appendRequest(frameStart(nil), Request{Op: OpGet, Key: []byte("k")})
	put := appendRequest(frameStart(nil), Request{Op: OpPut, Key: []byte("k2"), Value: []byte("v2")})
	if err := errors.Join(sealFrame(get), sealFrame(put)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(get, put...)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := readFrame(r)
	if err != nil {
		t.Fatalf("Get response held back behind the stalled Put: %v", err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil || resp.Status != StatusOK || string(resp.Value) != "v" {
		t.Fatalf("Get response = %+v, %v", resp, err)
	}
	select {
	case <-eng.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the Put never reached the engine")
	}
	unstall.Do(func() { close(eng.release) })
	payload, err = readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := DecodeResponse(payload); err != nil || resp.Status != StatusOK {
		t.Fatalf("Put response = %+v, %v", resp, err)
	}
}

// BenchmarkRoundTripParallel drives one pipelined client from many
// goroutines: Gets of preloaded keys.
func BenchmarkRoundTripParallel(b *testing.B) {
	db, err := lsm.Open(b.TempDir(), lsm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const keys = 1000
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < keys; i++ {
		if err := c.Put(context.Background(), []byte(fmt.Sprintf("key-%09d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.Get(context.Background(), []byte(fmt.Sprintf("key-%09d", i%keys))); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
