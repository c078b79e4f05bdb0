// Package agent defines the mobile agent object (§4): "an agent object
// is conceptually a collection of components. The basic component is
// its code ... Its state includes its credentials and a reference to
// the agent environment." Here the code is a bundle of VM modules, the
// state is the VM global table, and the environment reference is
// re-established by each server on arrival (the `host` field of Fig. 1
// never travels).
package agent

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cred"
	"repro/internal/names"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// Status of an agent as seen by its owner.
type Status string

const (
	StatusCreated Status = "created"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Stop is one itinerary entry: the servers to try (alternatives, in
// order) and the entry function to run on arrival. Alternatives give
// the fault-tolerant "try the next one" pattern the paper's itinerary
// abstractions support.
type Stop struct {
	// Servers are tried in order until a transfer succeeds.
	Servers []names.Name
	// Entry is the function of the agent's main module to execute on
	// arrival at this stop (e.g. "main" or "on_arrival").
	Entry string
}

// Itinerary is an ordered list of stops with a cursor. Higher-level
// patterns (co-location with a named resource, dynamic routes chosen by
// the agent via the `go` primitive) build on this.
type Itinerary struct {
	Stops []Stop
	Next  int
}

// Current returns the upcoming stop, or ok=false when exhausted.
func (it *Itinerary) Current() (Stop, bool) {
	if it.Next < 0 || it.Next >= len(it.Stops) {
		return Stop{}, false
	}
	return it.Stops[it.Next], true
}

// Advance moves the cursor past the current stop.
func (it *Itinerary) Advance() { it.Next++ }

// Done reports whether all stops have been visited.
func (it *Itinerary) Done() bool { return it.Next >= len(it.Stops) }

// Abandon discards the remaining stops: the agent heads straight home.
// Servers call this when a visit fails or every alternative of a stop
// is exhausted.
func (it *Itinerary) Abandon() { it.Next = len(it.Stops) }

// Remaining counts unvisited stops.
func (it *Itinerary) Remaining() int {
	if it.Done() {
		return 0
	}
	return len(it.Stops) - it.Next
}

// Sequence builds a simple one-server-per-stop itinerary running entry
// at each.
func Sequence(entry string, servers ...names.Name) Itinerary {
	stops := make([]Stop, len(servers))
	for i, s := range servers {
		stops[i] = Stop{Servers: []names.Name{s}, Entry: entry}
	}
	return Itinerary{Stops: stops}
}

// Agent is the mobile agent: code + state + credentials + itinerary.
// The struct is the unit of migration — everything in it is
// serializable; host-side references (proxies, environment) never
// travel.
type Agent struct {
	// Name is the agent's global identity (matches the credentials).
	Name names.Name
	// Credentials are the tamperproof identity/rights record (§5.2).
	Credentials cred.Credentials
	// Code is the verified module bundle; MainModule names the module
	// whose entry functions the itinerary runs.
	Code       []vm.Module
	MainModule string
	// State is the agent's global-variable image. Initialized tracks
	// whether the synthetic __init__ has run (it runs exactly once,
	// at the first server).
	State       map[string]vm.Value
	Initialized bool
	// Itinerary drives migration; Hops counts completed transfers.
	Itinerary Itinerary
	Hops      int
	// PendingEntry is the function to run on next arrival when the
	// agent migrated via the go primitive (a detour outside the
	// itinerary); empty otherwise.
	PendingEntry string
	// Results accumulate values the agent reports (the report host
	// call); they return to the home site with the agent.
	Results []vm.Value
	// Log accumulates the agent's own log lines for its owner.
	Log []string
	// Manifest is the declared access manifest computed from the code
	// bundle at build time (internal/vm/analysis): everything the code
	// can possibly ask a host for. Servers running admission control
	// re-verify it against a fresh analysis of Code — the declaration
	// must cover the computed needs — and check it against local
	// policy before any VM starts. Nil on agents built before the
	// analyzer existed; admission then computes one on the spot.
	Manifest *analysis.Manifest

	// hostState carries server-side per-arrival state (the admission
	// ticket) from the arrival gate to the hosting loop, which run on
	// different call paths but share this pointer. The codec never
	// writes it: host-side state must not travel.
	hostState any
}

// SetHostState attaches server-side arrival state; TakeHostState
// removes and returns it. Both are called on a single goroutine's
// admit→host path, never concurrently.
func (a *Agent) SetHostState(v any) { a.hostState = v }

// TakeHostState returns the attached state and clears it.
func (a *Agent) TakeHostState() any {
	v := a.hostState
	a.hostState = nil
	return v
}

// ErrNoCode is returned when constructing an agent without modules.
var ErrNoCode = errors.New("agent: no code modules")

// ErrFusedCode is returned when an agent's code bundle carries fused
// superinstructions — prepared execution copies are process-local and
// must never be constructed into, or cross the wire inside, an agent.
var ErrFusedCode = errors.New("agent: bundle carries fused (non-canonical) bytecode")

// New assembles an agent. The bundle is verified here as well as at
// every receiving server (defence in depth).
func New(creds cred.Credentials, mainModule string, code []vm.Module, it Itinerary) (*Agent, error) {
	if len(code) == 0 {
		return nil, ErrNoCode
	}
	if vm.BundleHasFused(code) {
		return nil, ErrFusedCode
	}
	if err := vm.VerifyBundle(code); err != nil {
		return nil, err
	}
	found := false
	for i := range code {
		if code[i].Name == mainModule {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("agent: main module %q not in bundle", mainModule)
	}
	if len(creds.CodeDigest) > 0 {
		digest, err := BundleDigest(code)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(digest, creds.CodeDigest) {
			return nil, errors.New("agent: code bundle does not match the digest pinned in the credentials")
		}
	}
	return &Agent{
		Name:        creds.AgentName,
		Credentials: creds,
		Code:        code,
		MainModule:  mainModule,
		State:       make(map[string]vm.Value),
		Itinerary:   it,
	}, nil
}

// BundleDigest computes the SHA-256 digest of a code bundle's canonical
// bytes: a domain tag followed by the agent codec's encoding of the
// bundle (PROTOCOLS.md §3). The owner signs this digest inside the
// credentials (cred.Credentials.CodeDigest), so a malicious intermediate
// host cannot modify the agent's *code* without invalidating the
// credentials — the implementable half of the paper's agent-protection
// requirement ("the code and state of an agent must be protected
// against modification by malicious hosts", §2; state must stay
// mutable, code need not). A bundle with fused bytecode has no
// canonical bytes and fails with ErrFusedCode.
func BundleDigest(code []vm.Module) ([]byte, error) {
	if vm.BundleHasFused(code) {
		return nil, fmt.Errorf("agent: digest: %w", ErrFusedCode)
	}
	return bundleDigest(code), nil
}

// Logf appends a formatted line to the agent's log, which travels home
// with it — the owner's only view of what happened on the tour.
func (a *Agent) Logf(format string, args ...any) {
	a.Log = append(a.Log, fmt.Sprintf(format, args...))
}

// SanitizeForTransfer strips host-bound values from the state: handles
// reference objects in the departing server's tables and are meaningless
// (and dangerous to honour) elsewhere. Called by the transfer layer
// before serialization. It stops descending below MaxValueDepth, where
// Encode refuses the value anyway, so a list the agent made contain
// itself cannot recurse without end.
func (a *Agent) SanitizeForTransfer() {
	for k, v := range a.State {
		a.State[k] = stripHandles(v, 1)
	}
}

func stripHandles(v vm.Value, depth int) vm.Value {
	if depth > MaxValueDepth {
		return v
	}
	switch v.Kind {
	case vm.KindHandle:
		return vm.Nil()
	case vm.KindList:
		for i := range v.List {
			v.List[i] = stripHandles(v.List[i], depth+1)
		}
		return v
	case vm.KindMap:
		for k, e := range v.Map {
			v.Map[k] = stripHandles(e, depth+1)
		}
		return v
	default:
		return v
	}
}

// Encode serializes the agent with the agent codec (codec.go; the
// system's wire encoding for agents). Only canonical bytecode may cross
// the wire: the fused superinstructions vm.Prepare rewrites into its
// process-local execution copies are rejected here, so a bug that ever
// routed a prepared module into an agent's Code fails loudly at the
// transfer choke point instead of shipping non-canonical code (which
// would break digest pinning and confuse remote verifiers). State or
// results nested deeper than MaxValueDepth fail with ErrValueTooDeep.
func (a *Agent) Encode() ([]byte, error) {
	if vm.BundleHasFused(a.Code) {
		return nil, fmt.Errorf("agent: encode: %w", ErrFusedCode)
	}
	bp := getBuf()
	defer putBuf(bp)
	out, err := encodeAgent(*bp, a)
	*bp = out
	if err != nil {
		return nil, fmt.Errorf("agent: encode: %w", err)
	}
	return bytes.Clone(out), nil
}

// Decode deserializes an agent, rejecting malformed or non-canonical
// encodings (ErrMalformed), over-deep values (ErrValueTooDeep) and
// non-canonical (fused) bytecode a malicious or buggy sender may have
// produced (ErrFusedCode).
func Decode(data []byte) (*Agent, error) {
	a, err := decodeAgent(data)
	if err != nil {
		return nil, fmt.Errorf("agent: decode: %w", err)
	}
	if vm.BundleHasFused(a.Code) {
		return nil, fmt.Errorf("agent: decode: %w", ErrFusedCode)
	}
	return a, nil
}
