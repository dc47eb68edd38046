// Package obs is the observer/metrics bus of the cache layers. The managers
// in internal/core publish every cache lifecycle event — trace insertion,
// eviction, promotion, program-forced deletion, capacity resize, policy
// switch — and the replay simulator in internal/sim publishes replay
// progress, through one Observer interface instead of package-private hook
// structs and ad-hoc counters. The arenas and local policies below the
// managers publish nothing: a manager reports what they did. A local
// policy's whole-cache flush has no event of its own: each flushed trace
// leaves along its tier's eviction edge like any other victim.
//
// The package imports nothing from the repo, so any consumer can subscribe.
// internal/stats provides the standard metrics consumer (EventCounter);
// cmd/ccsim can dump the raw stream.
package obs

import "fmt"

// Kind enumerates observable event types.
type Kind uint8

const (
	// KindInsert fires when a new trace is accepted into a managed cache.
	KindInsert Kind = iota + 1
	// KindEvict fires when a trace leaves the system from capacity
	// pressure (including probation deaths and persistent-cache evictions).
	KindEvict
	// KindPromote fires when a trace relocates from one cache level to
	// another (nursery→probation, probation→persistent).
	KindPromote
	// KindUnmap fires once per trace force-deleted because its module was
	// unmapped (program-forced eviction).
	KindUnmap
	// KindProgress reports replay progress: Done events of Total processed.
	KindProgress
	// KindResize fires when a managed arena's capacity changes (the adaptive
	// split controller shifting bytes between generations). Size carries the
	// new capacity; From names the resized cache.
	KindResize
	// KindPolicySwitch fires when the online policy selector swaps a tier's
	// live local policy. From names the tier; Policy carries the new policy's
	// spec string.
	KindPolicySwitch
	// KindAdmissionResize fires when the gencached admission controller's
	// limits change (the autoscaler or an operator resizing capacity). Size
	// carries the new slot count, Total the new queue depth.
	KindAdmissionResize
	// KindRegenerate fires when a miss forces a trace to be regenerated, with
	// Reason carrying the attributed cause (see internal/attrib). From names
	// the tier the trace last died out of, where known. Managers emit it only
	// when an attribution ledger is attached in emitting mode, so stock event
	// streams are unchanged.
	KindRegenerate
	// KindPeerAdopt fires when a session adopts a trace served by another
	// cluster node's shard of the distributed shared tier (pull-on-miss over
	// the trace-exchange protocol). Node carries the serving peer's ID.
	KindPeerAdopt

	// NumKinds bounds the Kind space; counting consumers size arrays with it.
	NumKinds = int(KindPeerAdopt) + 1
)

var kindNames = [...]string{
	"invalid", "insert", "evict", "promote", "unmap", "progress", "resize", "policy-switch", "admission-resize", "regenerate", "peer-adopt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Level identifies one cache within a manager. It lives here (rather than in
// internal/core) so events can name their source and destination caches
// without the bus depending on the managers; internal/core aliases it.
type Level int

// Cache levels. Unified managers use LevelUnified only; generational
// managers use the other three.
const (
	LevelUnified Level = iota
	LevelNursery
	LevelProbation
	LevelPersistent

	// LevelNone marks events and attribution cells with no associated cache
	// level (cold compiles, misses with no recorded death tier).
	LevelNone Level = -1
)

// NumLevels bounds the Level space; counting consumers size arrays with it.
const NumLevels = int(LevelPersistent) + 1

// levelNames is preallocated so Level.String never builds a string on the
// emit path for valid levels.
var levelNames = [NumLevels]string{"unified", "nursery", "probation", "persistent"}

func (l Level) String() string {
	if l >= 0 && int(l) < len(levelNames) {
		return levelNames[l]
	}
	if l == LevelNone {
		return "none"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Reason classifies why a miss forced a regeneration (KindRegenerate). The
// taxonomy lives here so the bus can carry causes without depending on the
// attribution ledger that derives them.
type Reason uint8

const (
	// ReasonNone marks an event with no attributed cause.
	ReasonNone Reason = iota
	// ReasonCold is a first compile: the trace had never been seen before.
	ReasonCold
	// ReasonCapacity is the default regeneration cause: the trace was evicted
	// under capacity pressure and later re-heated.
	ReasonCapacity
	// ReasonUnmapForced means the trace was deleted because its module was
	// unmapped (or its capacity death was superseded by a module unmap).
	ReasonUnmapForced
	// ReasonPrematureDemotion means the trace died out of a middle generation
	// (probation) and re-heated within the ledger's re-heat window — the
	// demotion threshold deleted a trace that was still hot.
	ReasonPrematureDemotion
	// ReasonNeverPromoted means the trace died out of the first generation
	// without ever being promoted past the threshold.
	ReasonNeverPromoted
	// ReasonAdoptionMiss means the shared tier had no publisher for an
	// identity this process had previously seen shared — the regeneration
	// paid for a trace a peer once published.
	ReasonAdoptionMiss
	// ReasonRemoteAdoption means the regeneration was served by another
	// cluster node's shard over the trace-exchange protocol: the local shared
	// tier missed, but a peer held the published trace, so the service layer
	// did not pay the generation cost. The private replay still regenerates
	// (bit-identity with offline ccsim), which is why this is a regeneration
	// cause rather than a suppressed event.
	ReasonRemoteAdoption

	// NumReasons bounds the Reason space; counting consumers size arrays
	// with it.
	NumReasons = int(ReasonRemoteAdoption) + 1
)

var reasonNames = [NumReasons]string{
	"none", "cold", "capacity", "unmap-forced", "premature-demotion", "never-promoted", "adoption-miss", "remote-adoption",
}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// ParseReason maps a reason name back to its Reason; ok is false for unknown
// names.
func ParseReason(s string) (Reason, bool) {
	for i, n := range reasonNames {
		if n == s {
			return Reason(i), true
		}
	}
	return ReasonNone, false
}

// Event is one observable cache-lifecycle event. Only the fields relevant to
// the Kind are set.
type Event struct {
	Kind   Kind
	Trace  uint64 // KindInsert, KindEvict, KindPromote, KindUnmap
	Size   uint64 // trace size in bytes, where known
	Module uint16 // owning module (KindUnmap, KindInsert)
	From   Level  // KindEvict, KindPromote, KindUnmap, KindRegenerate
	To     Level  // KindInsert, KindPromote

	// Reason is the attributed cause of a regeneration (KindRegenerate only).
	Reason Reason

	// Proc is the ID of the process whose action caused the event. Shared
	// back-end tiers serve several front-end processes at once, so every
	// cache event carries its causing process; single-process systems use 0.
	Proc int

	// Policy is the spec string of the newly live policy (KindPolicySwitch
	// only).
	Policy string

	// Node is the cluster node that served a cross-node adoption
	// (KindPeerAdopt only). Empty outside clustered deployments.
	Node string

	// Replay progress (KindProgress only).
	Benchmark string
	Done      uint64
	Total     uint64
}

// Observer receives events. Implementations must be safe for use from the
// single goroutine that owns the publishing manager; observers shared across
// concurrently replaying managers (e.g. one counter attached to every job of
// a parallel pipeline) must be internally synchronized, as stats.EventCounter
// is.
type Observer interface {
	Observe(Event)
}

// Func adapts a plain function to an Observer.
type Func func(Event)

// Observe implements Observer.
func (f Func) Observe(e Event) { f(e) }

// Emit publishes e to o if o is non-nil. Publishers use it so a nil observer
// costs one branch.
func Emit(o Observer, e Event) {
	if o != nil {
		o.Observe(e)
	}
}

// Bus fans one event stream out to several observers, in attach order.
type Bus struct {
	subs []Observer
}

// NewBus creates a bus over the given observers; nil entries are skipped.
func NewBus(subs ...Observer) *Bus {
	b := &Bus{}
	for _, s := range subs {
		b.Attach(s)
	}
	return b
}

// Attach subscribes an observer. Attach is not safe to call concurrently
// with Observe.
func (b *Bus) Attach(o Observer) {
	if o != nil {
		b.subs = append(b.subs, o)
	}
}

// Observe implements Observer by forwarding to every subscriber. A nil or
// empty bus returns immediately, so publishers can hold a *Bus
// unconditionally and pay one branch when nobody is listening.
func (b *Bus) Observe(e Event) {
	if b == nil || len(b.subs) == 0 {
		return
	}
	for _, s := range b.subs {
		s.Observe(e)
	}
}

// Len returns the number of subscribers.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	return len(b.subs)
}

// Combine merges observers into one, skipping nils: it returns nil when none
// remain (so Emit's nil check short-circuits the whole emit), the observer
// itself when exactly one remains (no fan-out indirection), and a Bus
// otherwise. Use it instead of NewBus when subscribers may be nil.
func Combine(subs ...Observer) Observer {
	var only Observer
	n := 0
	for _, s := range subs {
		if s != nil {
			only = s
			n++
		}
	}
	switch n {
	case 0:
		return nil
	case 1:
		return only
	default:
		return NewBus(subs...)
	}
}
