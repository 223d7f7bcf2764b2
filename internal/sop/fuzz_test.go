package sop

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/tt"
)

// decodeTable turns fuzz bytes into a table. The first byte picks the
// variable count (1..10); the following bytes fill its words, eight to a
// word, low byte first, and missing bytes are zero.
func decodeTable(data []byte) tt.TT {
	n := 1
	if len(data) > 0 {
		n, data = 1+int(data[0])%10, data[1:]
	}
	words := make([]uint64, tt.WordCount(n))
	for i := range words {
		var b [8]byte
		copy(b[:], data[min(len(data), 8*i):])
		words[i] = binary.LittleEndian.Uint64(b[:])
	}
	return tt.FromWords(n, words)
}

// FuzzFactor minimizes and factors a decoded table. The cover and the
// factored form must realize it, and both must equal the oracles'
// (oracle_test.go) cube for cube and character for character.
//
// Run with: make fuzz   (or: go test -fuzz '^FuzzFactor$' ./internal/sop)
func FuzzFactor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0x96})                                     // 3-input parity
	f.Add([]byte{3, 0xe8, 0x17})                               // majority and its mirror
	f.Add([]byte{6, 0x88, 0x00, 0x0f, 0xf0, 0x12, 0x34, 0x56}) // 7 inputs, sparse
	f.Add([]byte{7, 0xff, 0x00, 0xaa, 0x55, 0xcc, 0x33, 0xf0, 0x0f, 0x01, 0x80, 0x7e})
	f.Fuzz(func(t *testing.T, data []byte) {
		fn := decodeTable(data)
		n := fn.NumVars()
		cover := MinimizeTT(fn)
		if !cover.TT().Equal(fn) {
			t.Fatalf("%d vars %s: cover %v realizes %s", n, fn.Hex(), cover, cover.TT().Hex())
		}
		if want := minimizeOracle(fn, tt.New(n)); !slices.Equal(cover.Cubes, want.Cubes) {
			t.Fatalf("%d vars %s: cover %v, oracle %v", n, fn.Hex(), cover, want)
		}
		e := Factor(cover)
		if !e.TT(n).Equal(fn) {
			t.Fatalf("%d vars %s: factored form %v realizes %s", n, fn.Hex(), e, e.TT(n).Hex())
		}
		if got, want := e.String(), factorOracle(cover).String(); got != want {
			t.Fatalf("%d vars %s: factored form %s, oracle %s", n, fn.Hex(), got, want)
		}
	})
}
