// Package skiplist provides an ordered in-memory map from byte-string keys
// to byte-string values, implemented as a probabilistic skip list. It backs
// the LSM engine's memtable: inserts and lookups are O(log n) expected, and
// an iterator yields entries in key order so a memtable can be flushed to a
// sorted sstable in a single pass.
//
// The list is safe for any number of concurrent readers (Get, Iter, Seek
// and iterator traversal) alongside a single writer: nodes are fully
// initialized before they are published through atomic next pointers, a
// published node's key is never modified, value replacement swaps an
// atomic pointer, and nodes are never unlinked. Writers (Set) must still
// be serialized externally — the memtable's engine runs them under its
// commit pipeline's store lock.
package skiplist

import (
	"bytes"
	"math/rand"
	"sync/atomic"
)

const (
	maxHeight = 12
	// pInverse is the inverse of the promotion probability: each node is
	// promoted to the next level with probability 1/pInverse.
	pInverse = 4
)

type node struct {
	key []byte
	// value is replaced atomically when a key is overwritten, so a
	// lock-free reader sees either the old or the new value, never a torn
	// mix.
	value atomic.Pointer[[]byte]
	next  [maxHeight]atomic.Pointer[node]
}

func (n *node) loadNext(level int) *node { return n.next[level].Load() }

// List is an ordered map with byte-slice keys. The zero value is not
// usable; construct with New. Readers may run concurrently with one
// writer; see the package comment for the exact contract.
type List struct {
	head *node
	// height is loaded by lock-free readers while the writer grows it.
	height atomic.Int32
	length int
	bytes  int // sum of key+value lengths, for size accounting
	rng    *rand.Rand
}

// New creates an empty list. seed makes tower heights deterministic, which
// keeps tests and simulations reproducible.
func New(seed int64) *List {
	l := &List{
		head: &node{},
		rng:  rand.New(rand.NewSource(seed)),
	}
	l.height.Store(1)
	return l
}

// Len returns the number of entries. Writer-side accounting: callers must
// synchronize with Set externally.
func (l *List) Len() int { return l.length }

// SizeBytes returns the total size of all keys and values, the measure the
// memtable uses against its flush threshold. Writer-side accounting, like
// Len.
func (l *List) SizeBytes() int { return l.bytes }

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(pInverse) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual locates the first node with key >= target and fills
// prev with the rightmost node before it at every level.
//
// It returns the level-0 successor it compared, not a fresh load of
// x.next[0]: a concurrent Set may link a smaller key right after x once
// the comparison is done, and re-loading would hand the caller that node
// instead of the one holding key, so a present key would read as absent.
func (l *List) findGreaterOrEqual(key []byte, prev *[maxHeight]*node) *node {
	x := l.head
	var nx *node
	for level := int(l.height.Load()) - 1; level >= 0; level-- {
		for {
			nx = x.loadNext(level)
			if nx == nil || bytes.Compare(nx.key, key) >= 0 {
				break
			}
			x = nx
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return nx
}

// Set inserts key → value, replacing any existing value for key. The key
// and value slices are retained; callers must not modify them afterwards.
// Set calls must be serialized externally; readers may run concurrently.
func (l *List) Set(key, value []byte) {
	var prev [maxHeight]*node
	if n := l.findGreaterOrEqual(key, &prev); n != nil && bytes.Equal(n.key, key) {
		old := n.value.Load()
		l.bytes += len(value) - len(*old)
		n.value.Store(&value)
		return
	}
	h := l.randomHeight()
	if h > int(l.height.Load()) {
		for level := int(l.height.Load()); level < h; level++ {
			prev[level] = l.head
		}
		l.height.Store(int32(h))
	}
	n := &node{key: key}
	n.value.Store(&value)
	// Initialize every level's forward pointer before publishing the node
	// at any level: a reader that encounters n through one level's link can
	// safely continue through any lower level.
	for level := 0; level < h; level++ {
		n.next[level].Store(prev[level].loadNext(level))
	}
	for level := 0; level < h; level++ {
		prev[level].next[level].Store(n)
	}
	l.length++
	l.bytes += len(key) + len(value)
}

// Get returns the value stored for key and whether it exists. Safe to call
// concurrently with one writer.
func (l *List) Get(key []byte) ([]byte, bool) {
	n := l.findGreaterOrEqual(key, nil)
	if n != nil && bytes.Equal(n.key, key) {
		return *n.value.Load(), true
	}
	return nil, false
}

// Iterator walks the list in ascending key order. Entries inserted after
// the iterator passes their position are skipped; entries inserted ahead
// of it become visible — the usual weakly-consistent lock-free contract.
type Iterator struct {
	n *node
}

// Iter returns an iterator positioned at the first entry.
func (l *List) Iter() *Iterator {
	return &Iterator{n: l.head.loadNext(0)}
}

// Seek returns an iterator positioned at the first entry with key >= key.
func (l *List) Seek(key []byte) *Iterator {
	return &Iterator{n: l.findGreaterOrEqual(key, nil)}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current key. Only valid when Valid() is true.
func (it *Iterator) Key() []byte { return it.n.key }

// Value returns the current value. Only valid when Valid() is true.
func (it *Iterator) Value() []byte { return *it.n.value.Load() }

// Next advances to the following entry.
func (it *Iterator) Next() { it.n = it.n.loadNext(0) }
