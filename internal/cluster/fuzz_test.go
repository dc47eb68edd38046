package cluster

import (
	"reflect"
	"testing"
)

// FuzzWire drives every exchange decoder over arbitrary bytes, mirroring
// the tracelog fuzzers: malformed input must come back as an error (never a
// panic, never an unbounded allocation), and anything that decodes must
// survive a re-encode→decode round trip unchanged.
func FuzzWire(f *testing.F) {
	f.Add(EncodeLookupRequest(LookupRequest{Key: Key{Bench: "gzip", Module: 3, Head: 0x40}, Size: 128, Shard: 7}))
	f.Add(EncodeLookupResponse(LookupResponse{Found: true, TraceID: 12, Size: 128}))
	f.Add(EncodeLookupResponse(LookupResponse{}))
	f.Add(EncodeReplicateRequest(ReplicateRequest{Origin: "node0", Records: []Replica{
		{Key: Key{Bench: "gzip", Module: 1, Head: 0x10}, Size: 64, Shard: 1},
	}}))
	f.Add(EncodeReplicateResponse(ReplicateResponse{Accepted: 1, Rejected: 2}))
	f.Add(append(EncodeReplicateResponse(ReplicateResponse{Accepted: 1}), 0xCC))
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := DecodeLookupRequest(data); err == nil {
			if got, err2 := DecodeLookupRequest(EncodeLookupRequest(q)); err2 != nil || got != q {
				t.Fatalf("lookup request round trip: %+v vs %+v (%v)", got, q, err2)
			}
		}
		if p, err := DecodeLookupResponse(data); err == nil {
			if got, err2 := DecodeLookupResponse(EncodeLookupResponse(p)); err2 != nil || got != p {
				t.Fatalf("lookup response round trip: %+v vs %+v (%v)", got, p, err2)
			}
		}
		if q, err := DecodeReplicateRequest(data); err == nil {
			if got, err2 := DecodeReplicateRequest(EncodeReplicateRequest(q)); err2 != nil || !reflect.DeepEqual(got, q) {
				t.Fatalf("replicate request round trip: %+v vs %+v (%v)", got, q, err2)
			}
		}
		if p, err := DecodeReplicateResponse(data); err == nil {
			if got, err2 := DecodeReplicateResponse(EncodeReplicateResponse(p)); err2 != nil || got != p {
				t.Fatalf("replicate response round trip: %+v vs %+v (%v)", got, p, err2)
			}
		}
	})
}

// FuzzParseShards drives the snapshot query's shard-list parser, which a
// peer's snapshot handler feeds with the shards parameter off the network:
// no input may panic it, an accepted list must be non-empty, no longer than
// the ring and in range, and it must survive a format→parse round trip.
func FuzzParseShards(f *testing.F) {
	for _, s := range []string{"0,5,63", "", "64", "-1", "x", "1,,2"} {
		f.Add(s, uint16(64))
	}
	f.Fuzz(func(t *testing.T, s string, ring uint16) {
		ringShards := int(ring)
		got, err := ParseShards(s, ringShards)
		if err != nil {
			return
		}
		if len(got) == 0 || len(got) > ringShards {
			t.Fatalf("ParseShards(%q, %d) accepted %d shards", s, ringShards, len(got))
		}
		for _, v := range got {
			if v < 0 || v >= ringShards {
				t.Fatalf("ParseShards(%q, %d) accepted shard %d", s, ringShards, v)
			}
		}
		again, err := ParseShards(FormatShards(got), ringShards)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip of %v: %v, %v", got, again, err)
		}
	})
}
