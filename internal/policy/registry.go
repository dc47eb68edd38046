// The policy zoo: a registry of named, parameterized local policies. The
// closed set of structs in policy.go stays the implementation; the registry
// turns them into discoverable, CLI-addressable specs ("lru",
// "trrip:hot=8"), and hands out factories rather than instances — policies
// are stateful, so every tier (and every shadow copy the online selector
// races) needs its own fresh instance.
package policy

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Factory stamps out fresh instances of one configured policy.
type Factory struct {
	spec string
	mk   func() Local
}

// Spec returns the canonical spec string ("trrip:hot=8"); parsing it again
// yields an equivalent factory. Snapshots persist it.
func (f Factory) Spec() string { return f.spec }

// New builds a fresh policy instance.
func (f Factory) New() Local { return f.mk() }

// Info describes one registered policy for discovery listings.
type Info struct {
	// Name is the canonical policy name.
	Name string
	// Aliases are dash-free short names accepted by Parse. Tier-layout
	// strings ("30@lru-70@trrip") split tiers on '-', so policies named
	// inside them must use a dash-free form.
	Aliases []string
	// Params documents the "key=default" parameters, empty when none.
	Params string
	// Desc is a one-line description.
	Desc string
}

type entry struct {
	info  Info
	build func(p *paramSet) Local
}

// Registry maps policy names (and aliases) to constructors. Registration
// order is preserved so listings are deterministic.
type Registry struct {
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// Register adds a policy. The builder reads its parameters from the set
// (recording an error on bad values); Parse reports leftover keys as
// unknown-parameter errors.
func (r *Registry) Register(info Info, build func(p *paramSet) Local) {
	e := &entry{info: info, build: build}
	if _, dup := r.byName[info.Name]; dup {
		panic("policy: duplicate registration of " + info.Name)
	}
	r.byName[info.Name] = e
	for _, a := range info.Aliases {
		if _, dup := r.byName[a]; dup {
			panic("policy: duplicate registration of alias " + a)
		}
		r.byName[a] = e
	}
	r.entries = append(r.entries, e)
}

// List returns the registered policies in registration order.
func (r *Registry) List() []Info {
	out := make([]Info, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.info
	}
	return out
}

// Describe renders the registry as a human-readable listing, one entry per
// policy with its aliases, parameters, and description. CLIs print it for
// their -policies flag, followed by the pseudo-policy "auto" they accept.
func (r *Registry) Describe() string {
	var b strings.Builder
	b.WriteString("registered local policies (specs: \"name\" or \"name:key=value,...\"):\n")
	for _, e := range r.entries {
		name := e.info.Name
		if len(e.info.Aliases) > 0 {
			name += " (" + strings.Join(e.info.Aliases, ", ") + ")"
		}
		fmt.Fprintf(&b, "  %-28s %s\n", name, e.info.Desc)
		if e.info.Params != "" {
			fmt.Fprintf(&b, "  %-28s params: %s\n", "", e.info.Params)
		}
	}
	b.WriteString("  auto[:name]                  online selection: shadow-race the candidates, switch at epoch boundaries\n")
	return b.String()
}

// Parse resolves a policy spec — "name" or "name:key=value,key=value" — into
// a factory. Names may be canonical or aliases; the returned factory's Spec
// is canonicalized to the canonical name plus the given parameters.
func (r *Registry) Parse(spec string) (Factory, error) {
	name, args, hasArgs := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	e, ok := r.byName[name]
	if !ok {
		return Factory{}, fmt.Errorf("policy: unknown policy %q (run with -policies for the registry)", name)
	}
	ps := &paramSet{m: make(map[string]string)}
	if hasArgs {
		for _, kv := range strings.Split(args, ",") {
			k, v, ok := strings.Cut(kv, "=")
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if !ok || k == "" || v == "" {
				return Factory{}, fmt.Errorf("policy: %s: bad parameter %q (want key=value)", e.info.Name, kv)
			}
			if _, dup := ps.m[k]; dup {
				return Factory{}, fmt.Errorf("policy: %s: parameter %q given twice", e.info.Name, k)
			}
			ps.m[k] = v
		}
	}
	// Probe-build once to surface parameter errors eagerly; the factory then
	// rebuilds per instance (builders must be deterministic).
	if e.build(ps); ps.err != nil {
		return Factory{}, fmt.Errorf("policy: %s: %w", e.info.Name, ps.err)
	}
	if len(ps.m) > 0 {
		for k := range ps.m {
			if !ps.used[k] {
				return Factory{}, fmt.Errorf("policy: %s: unknown parameter %q (params: %s)", e.info.Name, k, e.info.Params)
			}
		}
	}
	canon := e.info.Name
	if hasArgs && args != "" {
		canon += ":" + args
	}
	return Factory{spec: canon, mk: func() Local {
		return e.build(&paramSet{m: ps.m})
	}}, nil
}

// paramSet is the typed accessor builders read their parameters through.
type paramSet struct {
	m    map[string]string
	used map[string]bool
	err  error
}

func (p *paramSet) lookup(key string) (string, bool) {
	v, ok := p.m[key]
	if ok {
		if p.used == nil {
			p.used = make(map[string]bool)
		}
		p.used[key] = true
	}
	return v, ok
}

// uint reads an unsigned parameter, or its default when absent.
func (p *paramSet) uint(key string, def uint64) uint64 {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q: want an unsigned integer", key, v)
	}
	return n
}

// uintIn reads an unsigned parameter that must lie in [lo, hi], or its
// default when absent. Out-of-range values are refused rather than wrapped
// by a narrowing conversion.
func (p *paramSet) uintIn(key string, def, lo, hi uint64) uint64 {
	n := p.uint(key, def)
	if (n < lo || n > hi) && p.err == nil {
		p.err = fmt.Errorf("parameter %s=%d: want an integer in [%d, %d]", key, n, lo, hi)
	}
	return n
}

// float reads a float parameter, or its default when absent.
func (p *paramSet) float(key string, def float64) float64 {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q: want a number", key, v)
	}
	return f
}

// Default is the process-wide registry holding every built-in policy.
var Default = NewRegistry()

// Parse resolves a policy spec against the default registry.
func Parse(spec string) (Factory, error) { return Default.Parse(spec) }

// List returns the default registry's policies in registration order.
func List() []Info { return Default.List() }

// Describe renders the default registry's -policies listing.
func Describe() string { return Default.Describe() }

func init() {
	Default.Register(Info{
		Name:    "pseudo-circular",
		Aliases: []string{"circ"},
		Desc:    "the paper's §4.3 circular sweep with undeletable-fragment resets (stock policy)",
	}, func(*paramSet) Local { return PseudoCircular{} })

	Default.Register(Info{
		Name: "lru",
		Desc: "evict the least-recently-executed trace first (O(1) recency list)",
	}, func(*paramSet) Local { return NewLRU() })

	Default.Register(Info{
		Name:   "trrip",
		Params: "max=7, cold=6, warm=4, hot=2",
		Desc:   "re-reference interval prediction seeded from trace heat at insert (TRRIP-style)",
	}, func(p *paramSet) Local { return newTRRIPFrom(p) })

	Default.Register(Info{
		Name:    "flush-when-full",
		Aliases: []string{"flush"},
		Desc:    "flush every deletable trace when an insertion does not fit",
	}, func(*paramSet) Local { return &FlushWhenFull{} })

	Default.Register(Info{
		Name:    "preemptive-flush",
		Aliases: []string{"preflush"},
		Params:  "window=32, spike=4",
		Desc:    "Dynamo's scheme: flush on trace-creation-rate spikes (phase changes) and when full",
	}, func(p *paramSet) Local {
		return &PreemptiveFlush{
			Window:      int(p.uintIn("window", 32, 1, math.MaxInt)),
			SpikeFactor: p.float("spike", 4),
		}
	})

	Default.Register(Info{
		Name:    "circular-first-fit",
		Aliases: []string{"cff"},
		Desc:    "fill program-forced holes first, then fall back to the circular sweep",
	}, func(*paramSet) Local { return &CircularFirstFit{} })
}
