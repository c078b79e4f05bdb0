// Admission control over access manifests: the server statically
// analyzes every arriving agent's code bundle (internal/vm/analysis)
// and rejects over-privileged agents BEFORE any VM starts. An agent
// whose reachable code asks for a resource the local policy would never
// grant its owner is turned away at the door instead of being hosted,
// metered and denied at the proxy — the cheap failure replaces the
// expensive one, and a malicious bundle never executes a single
// instruction here.
package server

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/agent"
	"repro/internal/names"
	"repro/internal/resource"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// AdmissionMode selects how the arrival gate treats access manifests.
type AdmissionMode int

const (
	// AdmissionOff (the default) skips the manifest check; agents are
	// admitted on credentials, bundle verification and capacity alone,
	// and every access check happens at binding time.
	AdmissionOff AdmissionMode = iota
	// AdmissionEnforce computes (or re-verifies a carried) access
	// manifest at arrival and rejects the agent when the manifest
	// demands a locally registered resource its owner has no grant
	// for. Fail-closed: an unanalyzable bundle is rejected.
	AdmissionEnforce
)

// ErrAdmission marks a manifest-based admission rejection.
var ErrAdmission = errors.New("admission denied")

// checkAdmission runs the manifest admission check. The bundle has
// already passed vm.VerifyBundle and the code-digest check; pinned is
// the bundle's digest when that check matched it against the
// owner-signed one, nil for an unpinned bundle.
//
// The effective manifest is the carried (owner-declared) one when the
// agent travels with a declaration — after re-verifying that it covers
// a freshly computed manifest, so an agent cannot under-declare its
// needs — and the computed one otherwise.
//
// The whole check runs against one pinned registry snapshot: a large
// manifest pays a single atomic table load instead of one per entry,
// and every entry is judged against the same registry generation — a
// concurrent install/unregister cannot make the verdict incoherent
// mid-manifest.
func (s *Server) checkAdmission(a *agent.Agent, pinned []byte) error {
	computed, err := s.bundleManifest(a.Code, pinned)
	if err != nil {
		// Fail-closed: a bundle the analyzer cannot reason about is
		// not hosted.
		return fmt.Errorf("%w: bundle unanalyzable: %v", ErrAdmission, err)
	}
	effective := computed
	if a.Manifest != nil {
		if !a.Manifest.Covers(computed) {
			return fmt.Errorf("%w: declared manifest does not cover the code's computed needs (declared %s; computed %s)",
				ErrAdmission, a.Manifest, computed)
		}
		effective = a.Manifest
	}
	snap := s.reg.Snapshot()
	for _, res := range effective.Resources {
		if res == analysis.Wildcard {
			// The analyzer could not resolve some get_resource/colocate
			// target: the agent may name any resource at run time.
			// Admissible only under an explicit wildcard-resource rule.
			if !s.cfg.Policy.AllowsWildcard(&a.Credentials) {
				return fmt.Errorf("%w: manifest demands unresolvable (\"*\") resource access and policy has no wildcard grant for %s",
					ErrAdmission, a.Credentials.Owner)
			}
			continue
		}
		rn, err := names.Parse(res)
		if err != nil {
			// An unparseable name can never be bound (get_resource
			// fails on it at run time); it grants nothing and is not an
			// admission concern.
			continue
		}
		entry, err := snap.Lookup(rn)
		if err != nil {
			// Not registered here: either a resource of a later stop
			// (another server's policy decides) or a name that will
			// simply fail to bind. Neither is this server's privilege
			// to refuse.
			continue
		}
		def, ok := entry.AP.(*resource.Def)
		if !ok {
			// A custom access protocol exposes no static method table
			// to decide over; the binding-time check governs.
			continue
		}
		grant := s.cfg.Policy.Decide(&a.Credentials, def.Path, def.MethodNames(), def.Rules...)
		if grant.Empty() {
			return fmt.Errorf("%w: manifest demands resource %s but policy grants %s no method on it",
				ErrAdmission, res, a.Credentials.Owner)
		}
	}
	return nil
}

// bundleManifest returns the access manifest computed from code. The
// manifest is a function of the code alone, so for a pinned bundle —
// pinned is the digest admit recomputed from code and found equal to
// the owner-signed one — it is computed once per server and memoized
// under that digest: every later journey of the same bundle, and every
// return of the same agent, reuses it. What the manifest is judged
// against (the declared manifest, the registry, the policy) is never
// memoized. An unpinned bundle is analyzed on every arrival.
func (s *Server) bundleManifest(code []vm.Module, pinned []byte) (*analysis.Manifest, error) {
	if pinned == nil {
		return analysis.ComputeManifest(code)
	}
	if m := s.manifests.get(pinned); m != nil {
		return m, nil
	}
	m, err := analysis.ComputeManifest(code)
	if err == nil {
		s.manifests.put(pinned, m)
	}
	return m, err
}

// manifestMemoSize bounds the manifests a server memoizes.
const manifestMemoSize = 64

// manifestMemo maps bundle digests to their computed manifests in a
// fixed direct-mapped table: a digest's slot is picked by its first
// byte, and a new digest replaces whatever held its slot. Memoized
// manifests are shared and never modified.
type manifestMemo [manifestMemoSize]atomic.Pointer[memoEntry]

type memoEntry struct {
	digest [sha256.Size]byte
	m      *analysis.Manifest
}

func (mm *manifestMemo) get(digest []byte) *analysis.Manifest {
	if e := mm[digest[0]%manifestMemoSize].Load(); e != nil && string(e.digest[:]) == string(digest) {
		return e.m
	}
	return nil
}

func (mm *manifestMemo) put(digest []byte, m *analysis.Manifest) {
	e := &memoEntry{m: m}
	copy(e.digest[:], digest)
	mm[digest[0]%manifestMemoSize].Store(e)
}
