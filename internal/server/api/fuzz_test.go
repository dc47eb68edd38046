package api

import (
	"bytes"
	"testing"
)

// FuzzStatsBinary drives the binary-stats decoder, which the client runs on
// bytes off the network: malformed frames must come back as errors, never
// panics, and an accepted frame must survive decode → MarshalBinary →
// decode unchanged (compared as encoded bytes, since a float may be NaN).
func FuzzStatsBinary(f *testing.F) {
	full, err := SessionResult{
		Session: 7, Benchmark: "word", Config: "gen(45-10-45)",
		CapacityBytes: 123456, Events: 99999, Accesses: 5000, Hits: 4800, Misses: 200, MissRate: 0.04,
		Overhead: Overhead{TotalInstructions: 1234567.25, TraceGens: 200},
		Shared:   SharedSavings{Adoptions: 5, Published: 11, PeerAdoptions: 2, SavedGenInstructions: 4242.5},
		Causes:   CauseCounts{Cold: 120, Capacity: 80, RemoteAdoption: 2},
	}.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(append(full[:len(full):len(full)], 0, 0))
	f.Add([]byte(statsMagic))
	f.Add([]byte("JSON{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r SessionResult
		if r.UnmarshalBinary(data) != nil {
			return
		}
		once, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var again SessionResult
		if err := again.UnmarshalBinary(once); err != nil {
			t.Fatalf("re-decode of an encoded result: %v", err)
		}
		twice, err := again.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("decode/encode round trip changed the result:\n  first:  %+v\n  second: %+v", r, again)
		}
	})
}
