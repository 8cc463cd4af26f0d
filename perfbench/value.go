package main

import (
	"bytes"
	"encoding/binary"
	"strconv"
)

// valueSize is the size of every stored value.
const valueSize = 100

// keyBytes renders a YCSB key identity the way YCSB names records.
func keyBytes(k uint64) []byte {
	return strconv.AppendUint([]byte("user"), k, 10)
}

// makeValue encodes key and version into a valueSize-byte value: the key
// (8 bytes), the version (4 bytes), then filler derived from both, so any
// wrong, stale or damaged byte is caught by comparing against the value
// the single writer of the key last stored.
func makeValue(k uint64, ver uint32) []byte {
	v := make([]byte, valueSize)
	fillValue(v, k, ver)
	return v
}

func fillValue(v []byte, k uint64, ver uint32) {
	binary.BigEndian.PutUint64(v[0:], k)
	binary.BigEndian.PutUint32(v[8:], ver)
	x := k ^ uint64(ver)<<40
	for i := 12; i < valueSize; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(v[i:], z^z>>31)
	}
}

func valueMatches(got []byte, k uint64, ver uint32) bool {
	var want [valueSize]byte
	fillValue(want[:], k, ver)
	return bytes.Equal(got, want[:])
}

// keyHash identifies a key in spans; client and server sides hash the
// same bytes, which is what lets a server-side span be linked to the
// client operation on that key.
func keyHash(key []byte) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
