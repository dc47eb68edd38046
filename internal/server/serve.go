// The exported serving plane: the production-day engine drives sessions
// through Server.ServeSession without HTTP, goroutines, or blocking — the
// replay runs synchronously on the caller's goroutine, in whatever order the
// caller's (virtual) clock dictates. OfflineReplay is the matching
// verification path: the same configuration replayed against a fully
// private manager with no shared tier, the way offline ccsim would run the
// log. A served session's replay-visible counters must equal its
// OfflineReplay bit-for-bit; that invariant is what "no session divergence"
// means in the ProductionDay experiment.

package server

import (
	"bytes"
	"errors"

	"repro/internal/costmodel"
	"repro/internal/server/api"
)

// SessionConfig is a session's configuration, the knobs of POST
// /v1/sessions in the form in-process callers pass them.
type SessionConfig = api.SessionConfig

// ServeSession runs one session synchronously on the caller's goroutine:
// open, replay, publish/adopt against the shared tier, close. It is the
// in-process equivalent of POST /v1/sessions minus admission — the caller
// owns admission (the day engine decides admit/queue/reject on its virtual
// clock before ever calling this).
func (s *Server) ServeSession(cfg SessionConfig, logData []byte) (api.SessionResult, error) {
	sr := newSessionRun(s)
	defer sr.close()
	out, err := s.serveSession(cfg, sr, bytes.NewReader(logData))
	if err != nil {
		return api.SessionResult{}, err
	}
	s.recordResult(out, uint64(len(logData)))
	return out, nil
}

// OfflineReplay replays a log against a fully private manager built from
// the same configuration — the offline ccsim ground truth a served session
// is verified against. No shared tier, no server: the result's Session and
// Shared fields are zero, and everything else must match the served result
// bit-for-bit. Like every served session, it charges
// costmodel.DefaultModel: model, kept for perfbench's calls, must be nil or
// equal to it.
func OfflineReplay(cfg SessionConfig, model *costmodel.Model, logData []byte) (api.SessionResult, error) {
	if model != nil && *model != costmodel.DefaultModel {
		return api.SessionResult{}, errors.New("server: a replay charges only costmodel.DefaultModel")
	}
	out, _, err := replayLog(cfg, bytes.NewReader(logData), nil)
	return out, err
}

// ResultsEquivalent reports whether a served session and its offline
// verification replay agree on every replay-visible field. Session identity
// and shared-tier interplay are service-side bookkeeping, excluded by
// construction. Adoption-miss and remote-adoption are folded into capacity
// on both sides before comparing: the served ledger upgrades capacity
// verdicts with shared-tier and cluster knowledge an offline replay cannot
// have, but the folds — like the causes themselves — must still conserve
// against the same regeneration total. This is the cluster's core
// invariant: a session's replay-visible result is bit-identical to offline
// ccsim no matter which node served it.
func ResultsEquivalent(served, offline api.SessionResult) bool {
	served.Session, offline.Session = 0, 0
	served.Shared, offline.Shared = api.SharedSavings{}, api.SharedSavings{}
	served.Causes.Capacity += served.Causes.AdoptionMiss + served.Causes.RemoteAdoption
	served.Causes.AdoptionMiss, served.Causes.RemoteAdoption = 0, 0
	offline.Causes.Capacity += offline.Causes.AdoptionMiss + offline.Causes.RemoteAdoption
	offline.Causes.AdoptionMiss, offline.Causes.RemoteAdoption = 0, 0
	return served == offline
}
