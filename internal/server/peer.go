// The server side of the distributed shared tier. A clustered gencached
// node owns a subset of the consistent-hash ring's shards; publications it
// does not own replicate asynchronously to their owners, and local adoption
// misses pull from the owner through the node's adoption cache. This file
// holds the cluster wiring (Config.Cluster → cluster.Node) and the three
// peer endpoints every node serves to its peers:
//
//	POST /v1/peer/lookup    — does your shard hold this publication?
//	POST /v1/peer/replicate — take these publications, you own their shards
//	GET  /v1/peer/snapshot  — your owned shards as a persist image
//
// Everything on the peer surface speaks the portable cluster identity
// (benchmark, log-local module, head address): global module IDs are
// allocated per node in arrival order and mean nothing across the wire.
// A snapshot transfer is the same self-describing persist image the server
// writes to disk, whose module table maps the sender's global IDs back to
// portable pairs; the receiver places every record through the one import
// routine that warm start and replication use, in its own namespace.

package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/cluster"
	"repro/internal/codecache"
	"repro/internal/dbt"
	"repro/internal/persist"
	"repro/internal/server/api"
)

// PeerAddr names one cluster peer and its base URL.
type PeerAddr struct {
	ID  string
	URL string
}

// ClusterConfig attaches a server to the distributed shared tier.
type ClusterConfig struct {
	// NodeID is this node's cluster member ID; unique across the cluster.
	NodeID string
	// Peers are the other members. Empty is a valid single-node cluster —
	// the node owns every shard and behaves byte-identically to an
	// unclustered server.
	Peers []PeerAddr
	// Shards is the ring's shard count; every member must agree. Default 64.
	Shards int
	// AdoptionCacheBytes sizes the pull-on-miss adoption cache. Default 1 MiB.
	AdoptionCacheBytes uint64
	// AdoptionPolicy governs the adoption cache ("lru", "trrip", ... —
	// anything the policy zoo parses). Default "lru".
	AdoptionPolicy string
	// HTTPClient carries peer requests; nil selects http.DefaultClient.
	// Deployments should set a timeout — a hung peer must not hang a session.
	HTTPClient *http.Client
}

// peers converts the address list into cluster.Peer values over HTTP
// transports.
func (c ClusterConfig) peers() []cluster.Peer {
	out := make([]cluster.Peer, 0, len(c.Peers))
	for _, p := range c.Peers {
		out = append(out, cluster.Peer{ID: p.ID, Transport: &cluster.HTTPTransport{BaseURL: p.URL, Client: c.HTTPClient}})
	}
	return out
}

// buildCluster constructs the server's cluster node from Config.Cluster.
func (s *Server) buildCluster(cc *ClusterConfig) error {
	n, err := cluster.New(cluster.Config{
		NodeID:             cc.NodeID,
		Shards:             cc.Shards,
		AdoptionCacheBytes: cc.AdoptionCacheBytes,
		AdoptionPolicy:     cc.AdoptionPolicy,
		Clock:              s.clock,
	}, cc.peers())
	if err != nil {
		return fmt.Errorf("server: cluster: %w", err)
	}
	s.cluster = n
	if len(cc.Peers) > 0 {
		// Multi-node feeds tag every event with the emitting node; a
		// single-node cluster stays byte-identical to an unclustered server.
		s.nodeTag = cc.NodeID
	}
	return nil
}

// Cluster exposes the cluster node (nil on unclustered servers) for metrics,
// drivers, and tests.
func (s *Server) Cluster() *cluster.Node { return s.cluster }

// SetClusterPeers replaces the cluster membership (join/leave). The ring
// rebuilds, departed peers' cached adoptions drop, and in-flight sessions
// are untouched — their private replays never depended on the membership.
// Node tagging follows the membership: events carry the node ID exactly
// while the deployment is multi-node.
func (s *Server) SetClusterPeers(peers []PeerAddr) error {
	if s.cluster == nil {
		return fmt.Errorf("server: not clustered")
	}
	if err := s.cluster.SetPeers(ClusterConfig{Peers: peers, HTTPClient: s.peerClient}.peers()); err != nil {
		return err
	}
	if len(peers) > 0 {
		s.nodeTag = s.cluster.ID()
	} else {
		s.nodeTag = ""
	}
	return nil
}

// FlushReplication drains the pending-replication queue to the shard
// owners. The server never flushes on its own cadence — the live daemon
// drives this from a real ticker, deterministic drivers from fixed points in
// their schedule, exactly like AutoscaleTick. No-op zero when unclustered.
func (s *Server) FlushReplication(ctx context.Context) int {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.FlushReplication(ctx)
}

// PendingReplication reports the queued replication records (0 unclustered).
func (s *Server) PendingReplication() int {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.PendingReplication()
}

// tagNode stamps a wire event with this node's ID on multi-node
// deployments. Events already carrying a node — peer adoptions name the
// serving peer — keep it; on single-node deployments (clustered or not)
// nodeTag is empty and the stream stays byte-identical to the pre-cluster
// service.
func (s *Server) tagNode(w *api.Event) {
	if s.nodeTag != "" && w.Node == "" {
		w.Node = s.nodeTag
	}
}

// maxPeerRequest bounds a peer request body: lookups are tiny, and a
// replication batch is at most MaxBatch small records.
const maxPeerRequest = 8 << 20

func readPeerBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPeerRequest))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "reading exchange body: %v", err)
		return nil, false
	}
	return body, true
}

func writeExchange(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", cluster.ExchangeContentType)
	_, _ = w.Write(body)
}

// handlePeerLookup answers POST /v1/peer/lookup: does this node's shard hold
// a size-matched publication for the key? Identities this node has never
// seen resolve to not-found without allocating in the module namespace — a
// peer's probe must not burn global module IDs.
func (s *Server) handlePeerLookup(w http.ResponseWriter, r *http.Request) {
	body, ok := readPeerBody(w, r)
	if !ok {
		return
	}
	q, err := cluster.DecodeLookupRequest(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ring := s.cluster.Ring()
	if int(q.Shard) != q.Key.Shard(ring.Shards()) {
		// The requester's ring disagrees with ours (mismatched shard counts);
		// fail closed — adopting across inconsistent rings corrupts placement.
		jsonError(w, http.StatusBadRequest, "shard %d does not match key placement", q.Shard)
		return
	}
	var resp cluster.LookupResponse
	if ring.Owner(int(q.Shard)) == s.cluster.ID() {
		if gmod, known := s.mods.lookup(q.Key.Bench, q.Key.Module); known {
			if f, resident := s.sp.ResidentFragment(gmod, q.Key.Head); resident && f.Size == q.Size {
				resp = cluster.LookupResponse{Found: true, TraceID: f.ID, Size: f.Size}
			}
		}
	}
	writeExchange(w, cluster.EncodeLookupResponse(resp))
}

// handlePeerReplicate accepts POST /v1/peer/replicate: a peer pushing
// publications whose shards this node owns. Each record lands in the local
// shared tier under a fresh local trace ID (IDs never cross the wire as
// identity); records for shards this node does not own, or that the tier
// cannot hold, are rejected in the response and the sender's copy remains
// the only one — replication is best-effort convergence, not a transaction.
func (s *Server) handlePeerReplicate(w http.ResponseWriter, r *http.Request) {
	body, ok := readPeerBody(w, r)
	if !ok {
		return
	}
	q, err := cluster.DecodeReplicateRequest(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var resp cluster.ReplicateResponse
	ring := s.cluster.Ring()
	for _, rec := range q.Records {
		shard := rec.Key.Shard(ring.Shards())
		if int(rec.Shard) == shard && ring.Owner(shard) == s.cluster.ID() && s.importRecord(rec.Key, rec.Size) {
			resp.Accepted++
		} else {
			resp.Rejected++
		}
	}
	writeExchange(w, cluster.EncodeReplicateResponse(resp))
}

// importRecord places one trace, named by its portable identity, into the
// local shared tier under a fresh trace ID and this server's global module
// ID for the identity. Warm start, shard bootstrap and replication all come
// through here, so no trace ID from an earlier run or another node is ever
// reused. A resident trace of the same identity stays: a size match is a
// merge, a mismatch keeps the local copy — the tier never overwrites itself
// on an import's say-so.
func (s *Server) importRecord(k cluster.Key, size uint64) bool {
	gmod, ok := s.mods.global(k.Bench, k.Module)
	if !ok {
		return false // no global module for the identity (see moduleSpace.global)
	}
	if f, resident := s.sp.ResidentFragment(gmod, k.Head); resident {
		return f.Size == size
	}
	id := s.sys.NextTraceID()
	var owners []int
	if s.cfg.KeepWarm {
		owners = []int{dbt.KeepWarmOwner}
	}
	err := s.sp.InsertWarm(owners, codecache.Fragment{
		ID: id, Size: size, Module: gmod, HeadAddr: k.Head,
	})
	return err == nil
}

// image snapshots the shared tier as one self-describing persist image: the
// resident records whose portable identity keep accepts (every one, when
// keep is nil) and the module table naming the modules they use. It is both
// the on-disk snapshot and the peer shard-transfer body.
func (s *Server) image(keep func(cluster.Key) bool) persist.Image {
	// Records first: a module is mapped before any record carries its ID, so
	// the namespace read after them names every one.
	img := persist.SnapshotShared("gencached", s.sp)
	idents := s.mods.identities()
	for g, k := range idents {
		img.Modules = append(img.Modules, persist.Module{ID: g, Bench: k.Bench, Local: k.Local})
	}
	sort.Slice(img.Modules, func(i, j int) bool { return img.Modules[i].ID < img.Modules[j].ID })
	return persist.FilterImage(img, func(rec persist.Record) bool {
		mk, ok := idents[rec.Module]
		return ok && (keep == nil || keep(cluster.Key{Bench: mk.Bench, Module: mk.Local, Head: rec.HeadAddr}))
	})
}

// importImage places an image's records through importRecord, each under
// the portable identity its module table names — every record on a warm
// start, the ones keep accepts on a shard bootstrap. A record whose module
// the table does not name cannot be placed and counts as rejected.
func (s *Server) importImage(img persist.Image, keep func(cluster.Key) bool) WarmStats {
	mods := make(map[uint16]persist.Module, len(img.Modules))
	for _, m := range img.Modules {
		mods[m.ID] = m
	}
	var ws WarmStats
	for _, rec := range img.Records {
		m, named := mods[rec.Module]
		k := cluster.Key{Bench: m.Bench, Module: m.Local, Head: rec.HeadAddr}
		if named && keep != nil && !keep(k) {
			continue
		}
		if named && s.importRecord(k, uint64(rec.Size)) {
			ws.Restored++
		} else {
			ws.Rejected++
		}
	}
	return ws
}

// handlePeerSnapshot serves GET /v1/peer/snapshot?shards=...: the requested
// shards' publications as a persist image — the snapshot the server writes
// to disk, narrowed to those shards, reused as the shard transfer and
// bootstrap format.
func (s *Server) handlePeerSnapshot(w http.ResponseWriter, r *http.Request) {
	ring := s.cluster.Ring()
	shards, err := cluster.ParseShards(r.URL.Query().Get("shards"), ring.Shards())
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wanted := make(map[int]bool, len(shards))
	for _, sh := range shards {
		wanted[sh] = true
	}
	img := s.image(func(k cluster.Key) bool { return wanted[k.Shard(ring.Shards())] })
	var buf bytes.Buffer
	if err := persist.Save(&buf, img); err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeExchange(w, buf.Bytes())
}

// BootstrapFromPeers pulls this node's owned shards from every peer and
// warms the local shared tier with them: the joiner's half of a rebalance.
// Peers are visited in sorted order; records already resident locally are
// kept (the local copy is authoritative for an owned shard). A peer that
// cannot answer is skipped — bootstrap is an optimization, convergence also
// flows through ongoing replication. Returns how many records were restored.
func (s *Server) BootstrapFromPeers(ctx context.Context) (restored int, err error) {
	if s.cluster == nil {
		return 0, fmt.Errorf("server: not clustered")
	}
	owned := s.cluster.OwnedShards()
	if len(owned) == 0 {
		return 0, nil
	}
	ownedSet := make(map[int]bool, len(owned))
	for _, sh := range owned {
		ownedSet[sh] = true
	}
	shards := s.cluster.Ring().Shards()
	var firstErr error
	for _, id := range s.cluster.Peers() {
		tr := s.cluster.Transport(id)
		if tr == nil {
			continue
		}
		img, err := tr.Snapshot(ctx, owned)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: bootstrap from %s: %w", id, err)
			}
			continue
		}
		ws := s.importImage(img, func(k cluster.Key) bool { return ownedSet[k.Shard(shards)] })
		restored += int(ws.Restored)
	}
	return restored, firstErr
}
