package api

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// fuzzEvent builds the Event FuzzEventLine encodes, one argument per field.
// TestFuzzEventSetsEveryField fails when Event gains a field this leaves
// unset.
func fuzzEvent(kind string, trace, size uint64, module uint16, from, to string, proc int, done, total uint64, policy, reason, node string) Event {
	return Event{
		Kind: kind, Trace: trace, Size: size, Module: module, From: from, To: to,
		Proc: proc, Done: done, Total: total, Policy: policy, Reason: reason, Node: node,
	}
}

// encoderLine is the reference: what a default json.Encoder writes for the
// event's stream line.
func encoderLine(t *testing.T, e *Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(StreamLine{Event: e}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEventLine holds AppendEventLine to json.Encoder's bytes for every
// Event field: zero values (omitted), extreme and negative numbers, and
// strings with HTML-special bytes, quotes, backslashes, control bytes,
// U+2028 and invalid UTF-8, appended after existing bytes.
func FuzzEventLine(f *testing.F) {
	f.Add("insert", uint64(7), uint64(480), uint16(3), "", "nursery", 12, uint64(0), uint64(0), "", "", "")
	f.Add("progress", uint64(0), uint64(0), uint16(0), "", "", 0, uint64(16384), uint64(70000), "", "", "")
	f.Add("policy-switch", uint64(0), uint64(0), uint16(0), "probation", "", 1, uint64(0), uint64(0), "trrip:cold=4", "", "")
	f.Add("regenerate", ^uint64(0), uint64(1), uint16(65535), "none", "", -1, uint64(0), uint64(0), "", "premature-demotion", "")
	f.Add("peer-adopt", uint64(9), uint64(64), uint16(1), "", "", 4, uint64(0), uint64(0), "", "", "node-<b>&1")
	f.Add("policy-switch", uint64(0), uint64(0), uint16(0), "nursery", "", 2, uint64(0), uint64(0), "say \"hi\"", "", "")
	f.Add("", uint64(0), uint64(0), uint16(0), "\\back\tslash\n", "\x00\x1f\x7f", -1<<63, uint64(1), uint64(1), "\u2028\u2029", "\xff\xfe bad utf-8", "caf\u00e9")
	f.Fuzz(func(t *testing.T, kind string, trace, size uint64, module uint16, from, to string, proc int, done, total uint64, policy, reason, node string) {
		e := fuzzEvent(kind, trace, size, module, from, to, proc, done, total, policy, reason, node)
		want := encoderLine(t, &e)
		prefix := []byte("prior line\n")
		got := AppendEventLine(prefix[:len(prefix):len(prefix)], &e)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("event %+v:\n  appender: %q\n  encoder:  %q", e, got[len(prefix):], want)
		}
	})
}

// TestFuzzEventSetsEveryField fails when Event gains a field that fuzzEvent,
// and so FuzzEventLine, does not set: every field of an event built from
// non-zero arguments must be non-zero, and its line must match the encoder.
func TestFuzzEventSetsEveryField(t *testing.T) {
	e := fuzzEvent("k", 1, 2, 3, "f", "t", 4, 5, 6, "p", "r", "n")
	v := reflect.ValueOf(e)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fuzzEvent leaves Event.%s unset; FuzzEventLine must cover every field", v.Type().Field(i).Name)
		}
	}
	if got, want := AppendEventLine(nil, &e), encoderLine(t, &e); !bytes.Equal(got, want) {
		t.Errorf("appender %q, encoder %q", got, want)
	}
}
