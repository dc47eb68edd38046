// The server-wide attribution plane: every attrib=1 session's ledger
// snapshot folds into one attrib.Aggregate, served back as the GET /v1/attrib
// report and the gencached_miss_cause_total metrics family. The aggregate is
// additive and order-independent, so the report is a deterministic function
// of the set of sessions served, not of their interleaving.

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/attrib"
	"repro/internal/obs"
	"repro/internal/server/api"
)

// causeCounts projects a ledger snapshot's totals onto the wire struct.
func causeCounts(s *attrib.Snapshot) api.CauseCounts {
	return api.CauseCounts{
		Cold:              s.Totals[obs.ReasonCold],
		Capacity:          s.Totals[obs.ReasonCapacity],
		PrematureDemotion: s.Totals[obs.ReasonPrematureDemotion],
		NeverPromoted:     s.Totals[obs.ReasonNeverPromoted],
		UnmapForced:       s.Totals[obs.ReasonUnmapForced],
		AdoptionMiss:      s.Totals[obs.ReasonAdoptionMiss],
		RemoteAdoption:    s.Totals[obs.ReasonRemoteAdoption],
	}
}

// attribQuery is the parsed query string of GET /v1/attrib.
type attribQuery struct {
	module    uint16 // filter to one module
	hasModule bool
	cause     obs.Reason // rank/filter module rows by one cause
	hasCause  bool
	top       int    // max module rows; 0 = all
	session   string // restrict the report to one tenant's aggregate
}

// parseAttribQuery validates the /v1/attrib query parameters. It is a pure
// function of the values, fuzzed directly.
func parseAttribQuery(q url.Values) (attribQuery, error) {
	aq := attribQuery{top: 20}
	if v := q.Get("module"); v != "" {
		n, err := strconv.ParseUint(v, 10, 16)
		if err != nil {
			return aq, fmt.Errorf("bad module %q", v)
		}
		aq.module, aq.hasModule = uint16(n), true
	}
	if v := q.Get("cause"); v != "" {
		r, ok := obs.ParseReason(v)
		if !ok || r == obs.ReasonNone {
			return aq, fmt.Errorf("unknown cause %q", v)
		}
		aq.cause, aq.hasCause = r, true
	}
	if v := q.Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 1<<16 {
			return aq, fmt.Errorf("bad top %q", v)
		}
		aq.top = n
	}
	if v := q.Get(api.ParamSession); v != "" {
		if len(v) > api.MaxTenantLen {
			return aq, fmt.Errorf("bad %s: label longer than %d bytes", api.ParamSession, api.MaxTenantLen)
		}
		aq.session = v
	}
	return aq, nil
}

// handleAttrib serves GET /v1/attrib: the aggregated miss-cause report over
// every attribution-enabled session since startup.
func (s *Server) handleAttrib(w http.ResponseWriter, r *http.Request) {
	aq, err := parseAttribQuery(r.URL.Query())
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap := s.attrib.Snapshot()
	if aq.session != "" {
		// An unknown tenant gets the empty report, not an error — the set of
		// labels is client-chosen and an operator probing one that never sent
		// attribution is asking a legitimate question with answer zero.
		snap = s.tenantSnapshot(aq.session)
	}
	rep := api.AttribReport{
		EpochAccesses: snap.EpochLen,
		ReheatEpochs:  snap.ReheatEpochs,
		Regenerations: snap.Regens,
		ColdCompiles:  snap.Totals[obs.ReasonCold],
		Conserved:     snap.Conserved(),
		Causes:        make(map[string]uint64, obs.NumReasons),
	}
	for c := obs.Reason(1); int(c) < obs.NumReasons; c++ {
		rep.Causes[c.String()] = snap.Totals[c]
	}
	if top, n := snap.TopCause(); n > 0 {
		rep.TopCause = top.String()
	}
	if aq.session != "" {
		rep.Session = aq.session
	} else {
		rep.Tenants = s.tenantNames()
	}
	for _, row := range attribModuleRows(snap, aq) {
		rep.Modules = append(rep.Modules, row)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rep)
}

// attribModuleRows folds the snapshot's cells into per-module rows under the
// query's filters, sorted by regenerations (or the filter cause) descending,
// module ascending — a deterministic order.
func attribModuleRows(snap *attrib.Snapshot, aq attribQuery) []api.AttribModule {
	idx := make(map[uint16]int)
	var rows []api.AttribModule
	counts := make(map[uint16]*[obs.NumReasons]uint64)
	for _, c := range snap.Cells {
		if aq.hasModule && c.Module != aq.module {
			continue
		}
		i, ok := idx[c.Module]
		if !ok {
			i = len(rows)
			idx[c.Module] = i
			rows = append(rows, api.AttribModule{Module: c.Module})
			counts[c.Module] = &[obs.NumReasons]uint64{}
		}
		counts[c.Module][c.Cause] += c.Count
		if c.Cause != obs.ReasonNone && c.Cause != obs.ReasonCold {
			rows[i].Regens += c.Count
		}
	}
	for i := range rows {
		cc := counts[rows[i].Module]
		rows[i].Causes = api.CauseCounts{
			Cold:              cc[obs.ReasonCold],
			Capacity:          cc[obs.ReasonCapacity],
			PrematureDemotion: cc[obs.ReasonPrematureDemotion],
			NeverPromoted:     cc[obs.ReasonNeverPromoted],
			UnmapForced:       cc[obs.ReasonUnmapForced],
			AdoptionMiss:      cc[obs.ReasonAdoptionMiss],
			RemoteAdoption:    cc[obs.ReasonRemoteAdoption],
		}
	}
	rankOf := func(m api.AttribModule) uint64 {
		if !aq.hasCause {
			return m.Regens
		}
		switch aq.cause {
		case obs.ReasonCold:
			return m.Causes.Cold
		case obs.ReasonCapacity:
			return m.Causes.Capacity
		case obs.ReasonPrematureDemotion:
			return m.Causes.PrematureDemotion
		case obs.ReasonNeverPromoted:
			return m.Causes.NeverPromoted
		case obs.ReasonUnmapForced:
			return m.Causes.UnmapForced
		case obs.ReasonAdoptionMiss:
			return m.Causes.AdoptionMiss
		case obs.ReasonRemoteAdoption:
			return m.Causes.RemoteAdoption
		}
		return 0
	}
	if aq.hasCause {
		kept := rows[:0]
		for _, m := range rows {
			if rankOf(m) > 0 {
				kept = append(kept, m)
			}
		}
		rows = kept
	}
	sortModules(rows, rankOf)
	if aq.top > 0 && len(rows) > aq.top {
		rows = rows[:aq.top]
	}
	return rows
}

func sortModules(rows []api.AttribModule, rank func(api.AttribModule) uint64) {
	// Insertion sort keeps this dependency-free; module counts are small
	// (16-bit space, usually a handful per benchmark).
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0; j-- {
			a, b := rows[j-1], rows[j]
			if rank(a) > rank(b) || (rank(a) == rank(b) && a.Module < b.Module) {
				break
			}
			rows[j-1], rows[j] = b, a
		}
	}
}
