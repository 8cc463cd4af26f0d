package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	l := New(1)
	l.Set([]byte("b"), []byte("2"))
	l.Set([]byte("a"), []byte("1"))
	l.Set([]byte("c"), []byte("3"))
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		v, ok := l.Get([]byte(k))
		if !ok || string(v) != want {
			t.Errorf("Get(%q) = %q,%v want %q", k, v, ok, want)
		}
	}
	if _, ok := l.Get([]byte("zz")); ok {
		t.Errorf("Get of missing key returned ok")
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
}

func TestOverwriteKeepsLenAndAdjustsBytes(t *testing.T) {
	l := New(1)
	l.Set([]byte("k"), []byte("short"))
	before := l.SizeBytes()
	l.Set([]byte("k"), []byte("much longer value"))
	if l.Len() != 1 {
		t.Errorf("Len after overwrite = %d, want 1", l.Len())
	}
	wantDelta := len("much longer value") - len("short")
	if got := l.SizeBytes() - before; got != wantDelta {
		t.Errorf("SizeBytes delta = %d, want %d", got, wantDelta)
	}
	v, _ := l.Get([]byte("k"))
	if string(v) != "much longer value" {
		t.Errorf("overwritten value = %q", v)
	}
}

func TestIterationSorted(t *testing.T) {
	l := New(7)
	r := rand.New(rand.NewSource(2))
	want := map[string]bool{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%06d", r.Intn(100000))
		want[k] = true
		l.Set([]byte(k), []byte("v"))
	}
	var keys []string
	for it := l.Iter(); it.Valid(); it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if len(keys) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(keys), len(want))
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("iteration out of order")
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("unexpected key %q", k)
		}
	}
}

func TestSeek(t *testing.T) {
	l := New(3)
	for _, k := range []string{"apple", "banana", "cherry", "fig"} {
		l.Set([]byte(k), []byte(k))
	}
	cases := []struct {
		seek, want string
	}{
		{"a", "apple"},
		{"apple", "apple"},
		{"b", "banana"},
		{"cz", "fig"},
		{"fig", "fig"},
	}
	for _, c := range cases {
		it := l.Seek([]byte(c.seek))
		if !it.Valid() || string(it.Key()) != c.want {
			t.Errorf("Seek(%q) at %q, want %q", c.seek, it.Key(), c.want)
		}
	}
	if it := l.Seek([]byte("zzz")); it.Valid() {
		t.Errorf("Seek past end should be invalid")
	}
}

func TestEmptyListIterator(t *testing.T) {
	l := New(1)
	if it := l.Iter(); it.Valid() {
		t.Errorf("iterator over empty list should be invalid")
	}
}

func TestQuickMatchesReferenceMap(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val uint16
	}) bool {
		l := New(11)
		ref := map[string]string{}
		for _, op := range ops {
			k := []byte{op.Key}
			v := []byte(fmt.Sprint(op.Val))
			l.Set(k, v)
			ref[string(k)] = string(v)
		}
		if l.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := l.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		// Iteration must be sorted and complete.
		prev := []byte(nil)
		n := 0
		for it := l.Iter(); it.Valid(); it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				return false
			}
			prev = append([]byte(nil), it.Key()...)
			n++
		}
		return n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSet(b *testing.B) {
	l := New(1)
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%010d", i*2654435761%1000000007))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Set(keys[i], keys[i])
	}
}

func BenchmarkGet(b *testing.B) {
	l := New(1)
	const n = 100000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%010d", i))
		l.Set(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("key-%010d", i%n))
		if _, ok := l.Get(k); !ok {
			b.Fatal("missing key")
		}
	}
}

// TestGetSeesPresentKeyDuringConcurrentInsert: a writer links keys
// immediately in front of a present key while a reader Gets that key.
// Every Get must find it; a search that re-reads the level-0 link after
// comparing would return the freshly linked smaller node and miss.
func TestGetSeesPresentKeyDuringConcurrentInsert(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a writer and a reader running in parallel")
	}
	l := New(1)
	present := []byte("k1")
	l.Set(present, []byte("v"))
	const inserts = 200000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < inserts; i++ {
			// Ascending keys below "k1": each one links right before it.
			l.Set([]byte(fmt.Sprintf("k0%08d", i)), nil)
		}
	}()
	misses, gets := 0, 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if _, ok := l.Get(present); !ok {
			misses++
		}
		gets++
	}
	if misses > 0 {
		t.Fatalf("Get missed a present key %d times in %d Gets", misses, gets)
	}
}
