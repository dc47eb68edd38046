package cluster

import (
	"reflect"
	"strings"
	"testing"
)

// TestWireRoundTrip: every message survives encode→decode.
func TestWireRoundTrip(t *testing.T) {
	lq := LookupRequest{Key: Key{Bench: "gzip", Module: 7, Head: 0xDEADBEEF}, Size: 4096, Shard: 42}
	if got, err := DecodeLookupRequest(EncodeLookupRequest(lq)); err != nil || got != lq {
		t.Fatalf("lookup request: %+v, %v", got, err)
	}
	for _, lr := range []LookupResponse{
		{Found: true, TraceID: 99, Size: 4096},
		{Found: false},
	} {
		if got, err := DecodeLookupResponse(EncodeLookupResponse(lr)); err != nil || got != lr {
			t.Fatalf("lookup response: %+v, %v", got, err)
		}
	}
	rq := ReplicateRequest{
		Origin: "node1",
		Records: []Replica{
			{Key: Key{Bench: "gzip", Module: 1, Head: 0x10}, Size: 64, Shard: 3},
			{Key: Key{Bench: "vortex", Module: 2, Head: 0x20}, Size: 128, Shard: 9},
		},
	}
	if got, err := DecodeReplicateRequest(EncodeReplicateRequest(rq)); err != nil || !reflect.DeepEqual(got, rq) {
		t.Fatalf("replicate request: %+v, %v", got, err)
	}
	rp := ReplicateResponse{Accepted: 2, Rejected: 1}
	if got, err := DecodeReplicateResponse(EncodeReplicateResponse(rp)); err != nil || got != rp {
		t.Fatalf("replicate response: %+v, %v", got, err)
	}
}

// TestWireBounds: out-of-bounds fields are rejected with ErrWire, not
// accepted or panicked on.
func TestWireBounds(t *testing.T) {
	// Shard beyond the ring space.
	bad := EncodeLookupRequest(LookupRequest{Key: Key{Bench: "gzip"}, Size: 1, Shard: MaxShards})
	if _, err := DecodeLookupRequest(bad); err == nil {
		t.Error("oversized shard accepted")
	}
	// Zero size.
	if _, err := DecodeLookupRequest(EncodeLookupRequest(LookupRequest{Key: Key{Bench: "g"}, Size: 0, Shard: 1})); err == nil {
		t.Error("zero size accepted")
	}
	// Benchmark name beyond the bound.
	long := LookupRequest{Key: Key{Bench: strings.Repeat("x", MaxNameLen+1)}, Size: 1, Shard: 0}
	if _, err := DecodeLookupRequest(EncodeLookupRequest(long)); err == nil {
		t.Error("oversized bench name accepted")
	}
	// Batch count lies about the payload: huge declared count, no records.
	huge := encHeader(msgReplicateReq)
	huge = encStr(huge, "n")
	huge = encU64(huge, MaxBatch+1)
	if _, err := DecodeReplicateRequest(huge); err == nil {
		t.Error("oversized batch accepted")
	}
	// Wrong magic and wrong message type.
	if _, err := DecodeLookupRequest([]byte("XXXXXX\x01")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeLookupRequest(EncodeLookupResponse(LookupResponse{})); err == nil {
		t.Error("wrong message type accepted")
	}
	// Trailing garbage on a whole-message decode.
	ok := EncodeLookupResponse(LookupResponse{Found: true, TraceID: 1, Size: 2})
	if _, err := DecodeLookupResponse(append(ok, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestParseShards: the snapshot query's shard list is bounds-checked.
func TestParseShards(t *testing.T) {
	got, err := ParseShards("0,5,63", 64)
	if err != nil || !reflect.DeepEqual(got, []int{0, 5, 63}) {
		t.Fatalf("ParseShards = %v, %v", got, err)
	}
	for _, bad := range []string{"", "64", "-1", "x", "1,,2"} {
		if _, err := ParseShards(bad, 64); err == nil {
			t.Errorf("ParseShards(%q) accepted", bad)
		}
	}
	if s := FormatShards([]int{0, 5, 63}); s != "0,5,63" {
		t.Errorf("FormatShards = %q", s)
	}
}
