package transfer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/cred"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/netsim"
	"repro/internal/vm"
)

type world struct {
	reg  *keys.Registry
	net  *netsim.Network
	a, b *Endpoint
}

func newWorld(t *testing.T) *world {
	t.Helper()
	reg, err := keys.NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(n names.Name) *Endpoint {
		id, err := keys.NewIdentity(reg, n, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		// TransferTimeout mirrors production configuration (server.New
		// always sets one): a corrupted length prefix that inflates a
		// frame's claimed size must surface as a timeout on both sides,
		// not wedge reader and ack-waiter forever.
		return &Endpoint{
			Identity:         id,
			Verifier:         reg.Verifier(),
			HandshakeTimeout: 2 * time.Second,
			TransferTimeout:  5 * time.Second,
		}
	}
	return &world{
		reg: reg,
		net: netsim.NewNetwork(),
		a:   mk(names.Server("umn.edu", "s-a")),
		b:   mk(names.Server("acme.com", "s-b")),
	}
}

func testAgent(t *testing.T, reg *keys.Registry) *agent.Agent {
	t.Helper()
	owner, err := keys.NewIdentity(reg, names.Principal("umn.edu", "alice"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cred.Issue(owner, names.Agent("umn.edu", "traveller"),
		names.Principal("umn.edu", "app"), cred.NewRightSet(cred.All), time.Hour, "home")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := asl.Compile("module m\nvar visits = 0\nfunc main() { visits = visits + 1 return visits }")
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(c, "m", []vm.Module{*mod}, agent.Itinerary{})
	if err != nil {
		t.Fatal(err)
	}
	a.State["visits"] = vm.I(3)
	return a
}

// exchange runs one transfer over the simulated network and returns the
// received agent (or error) and the sender-side error. The receiver runs
// one round of ServeConn's loop by hand — handshake, then receiveOne —
// so a rejection's receiver-side error is visible to the test.
func (w *world) exchange(t *testing.T, a *agent.Agent, accept func(*agent.Agent, names.Name) error) (*agent.Agent, error, error) {
	t.Helper()
	l, err := w.net.Listen("b:7000")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var (
		got     *agent.Agent
		recvErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			recvErr = err
			return
		}
		defer conn.Close()
		s, err := w.b.handshake(conn, false, w.b.HandshakeTimeout)
		if err != nil {
			recvErr = err
			return
		}
		defer s.release()
		got, _, recvErr = w.b.receiveOne(s, accept)
	}()
	conn, err := w.net.Dial("b:7000")
	if err != nil {
		t.Fatal(err)
	}
	sendErr := w.a.deliver(conn, a)
	conn.Close()
	wg.Wait()
	return got, recvErr, sendErr
}

// deliver runs the sender's half of one transfer on conn: connect, then
// one exchange.
func (e *Endpoint) deliver(conn net.Conn, a *agent.Agent) error {
	s, err := e.connect(conn)
	if err != nil {
		return err
	}
	defer s.release()
	return e.exchange(s, a)
}

func TestTransferRoundTrip(t *testing.T) {
	w := newWorld(t)
	a := testAgent(t, w.reg)
	got, recvErr, sendErr := w.exchange(t, a, nil)
	if sendErr != nil || recvErr != nil {
		t.Fatalf("send=%v recv=%v", sendErr, recvErr)
	}
	if got.Name != a.Name || !got.State["visits"].Equal(vm.I(3)) {
		t.Fatalf("agent mangled: %+v", got)
	}
	if err := got.Credentials.Verify(w.reg.Verifier(), time.Now()); err != nil {
		t.Fatalf("credentials broken after transfer: %v", err)
	}
}

func TestTransferStripsHandles(t *testing.T) {
	w := newWorld(t)
	a := testAgent(t, w.reg)
	a.State["proxy"] = vm.H(42)
	got, recvErr, sendErr := w.exchange(t, a, nil)
	if sendErr != nil || recvErr != nil {
		t.Fatalf("send=%v recv=%v", sendErr, recvErr)
	}
	if got.State["proxy"].Kind != vm.KindNil {
		t.Fatal("host handle crossed the wire")
	}
}

func TestReceiverRejection(t *testing.T) {
	w := newWorld(t)
	a := testAgent(t, w.reg)
	reject := func(*agent.Agent, names.Name) error { return errors.New("no capacity") }
	got, recvErr, sendErr := w.exchange(t, a, reject)
	if got != nil {
		t.Fatal("rejected agent returned")
	}
	if !errors.Is(recvErr, ErrRejected) {
		t.Fatalf("recv = %v", recvErr)
	}
	if !errors.Is(sendErr, ErrRejected) {
		t.Fatalf("send = %v", sendErr)
	}
}

func TestShedAckRoundTrip(t *testing.T) {
	// A load-shedding rejection must cross the wire as its own ack
	// shape and be reconstructed sender-side as a typed ShedError:
	// matching admission.ErrShed (transient), NOT ErrRejected
	// (permanent), with the receiver's retry-after hint intact.
	w := newWorld(t)
	a := testAgent(t, w.reg)
	shed := func(*agent.Agent, names.Name) error {
		return &admission.ShedError{Tier: "bulk", Cause: "rate", RetryAfter: 120 * time.Millisecond}
	}
	got, recvErr, sendErr := w.exchange(t, a, shed)
	if got != nil {
		t.Fatal("shed agent returned")
	}
	if !errors.Is(recvErr, admission.ErrShed) {
		t.Fatalf("recv = %v, want ErrShed", recvErr)
	}
	if !errors.Is(sendErr, admission.ErrShed) {
		t.Fatalf("send = %v, want ErrShed", sendErr)
	}
	if errors.Is(sendErr, ErrRejected) {
		t.Fatal("shed must not look like a permanent rejection to the sender")
	}
	var se *admission.ShedError
	if !errors.As(sendErr, &se) {
		t.Fatalf("send = %T, want *admission.ShedError", sendErr)
	}
	if se.RetryAfter != 120*time.Millisecond {
		t.Fatalf("retry-after hint = %v, want 120ms", se.RetryAfter)
	}
	if se.Cause != "rate" {
		t.Fatalf("cause = %q, want rate", se.Cause)
	}
}

func TestShedKeepsSessionUsable(t *testing.T) {
	// A shed is an application-level deferral, not a protocol failure:
	// the same session must carry a subsequent transfer once the
	// receiver has room. Drive two transfers over one session by hand.
	w := newWorld(t)
	a := testAgent(t, w.reg)
	l, err := w.net.Listen("b:7000")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	shedFirst := true
	accept := func(*agent.Agent, names.Name) error {
		if shedFirst {
			shedFirst = false
			return &admission.ShedError{Cause: "concurrency", RetryAfter: 10 * time.Millisecond}
		}
		return nil
	}
	recvDone := make(chan error, 2)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			recvDone <- err
			return
		}
		defer conn.Close()
		s, err := w.b.handshake(conn, false, 0)
		if err != nil {
			recvDone <- err
			return
		}
		for i := 0; i < 2; i++ {
			_, fatal, err := w.b.receiveOne(s, accept)
			if err != nil && fatal {
				recvDone <- err
				return
			}
			recvDone <- err
		}
	}()

	conn, err := w.net.Dial("b:7000")
	if err != nil {
		t.Fatal(err)
	}
	s, err := w.a.connect(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.a.exchange(s, a); !errors.Is(err, admission.ErrShed) {
		t.Fatalf("first transfer: %v, want ErrShed", err)
	}
	if err := <-recvDone; !errors.Is(err, admission.ErrShed) {
		t.Fatalf("receiver first: %v, want ErrShed", err)
	}
	if err := w.a.exchange(s, a); err != nil {
		t.Fatalf("second transfer on same session: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("receiver second: %v", err)
	}
}

func TestC7_EavesdropperSeesNoPlaintext(t *testing.T) {
	w := newWorld(t)
	a := testAgent(t, w.reg)
	var captured []byte
	w.net.SetTap(func(from, to string, data []byte) []byte {
		captured = append(captured, data...)
		return data
	})
	_, recvErr, sendErr := w.exchange(t, a, nil)
	if sendErr != nil || recvErr != nil {
		t.Fatalf("send=%v recv=%v", sendErr, recvErr)
	}
	// The agent's owner name appears in credentials; the sealed
	// channel must not leak it. (Handshake certificates do carry the
	// *server* names — that is public information.)
	if containsSub(captured, []byte("traveller")) {
		t.Fatal("agent identity visible on the wire")
	}
	if containsSub(captured, []byte("visits")) {
		t.Fatal("agent state visible on the wire")
	}
}

func TestC7_PlaintextModeLeaks(t *testing.T) {
	// Sanity check of the baseline: without the secure channel the
	// eavesdropper DOES see agent internals. This is the contrast
	// case for the experiment above.
	w := newWorld(t)
	w.a.Plaintext = true
	w.b.Plaintext = true
	a := testAgent(t, w.reg)
	var captured []byte
	w.net.SetTap(func(from, to string, data []byte) []byte {
		captured = append(captured, data...)
		return data
	})
	_, recvErr, sendErr := w.exchange(t, a, nil)
	if sendErr != nil || recvErr != nil {
		t.Fatalf("send=%v recv=%v", sendErr, recvErr)
	}
	if !containsSub(captured, []byte("traveller")) {
		t.Fatal("expected plaintext leak in baseline mode")
	}
}

func TestC7_TamperDetected(t *testing.T) {
	w := newWorld(t)
	a := testAgent(t, w.reg)
	frames := 0
	w.net.SetTap(func(from, to string, data []byte) []byte {
		frames++
		if frames > 4 { // let the 4 handshake frames through, corrupt the payload
			data[len(data)/2] ^= 0x01
		}
		return data
	})
	_, recvErr, sendErr := w.exchange(t, a, nil)
	if recvErr == nil && sendErr == nil {
		t.Fatal("tampered transfer succeeded")
	}
	if recvErr != nil && !errors.Is(recvErr, ErrIntegrity) {
		// Depending on which frame was hit the failure may surface as
		// an integrity error or a read error after rejection; but it
		// must never be silent success.
		t.Logf("receiver error (acceptable): %v", recvErr)
	}
}

func TestC7_ImpersonationRejected(t *testing.T) {
	// A server whose certificate comes from an untrusted CA cannot
	// complete the handshake.
	w := newWorld(t)
	rogueReg, err := keys.NewRegistry(names.Principal("evil.org", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	rogueID, err := keys.NewIdentity(rogueReg, names.Server("acme.com", "s-b"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w.a = &Endpoint{Identity: rogueID, Verifier: rogueReg.Verifier(), HandshakeTimeout: time.Second}
	a := testAgent(t, w.reg)
	_, recvErr, sendErr := w.exchange(t, a, nil)
	if recvErr == nil {
		t.Fatal("receiver accepted impostor")
	}
	if !errors.Is(recvErr, ErrAuth) {
		t.Fatalf("recv = %v, want auth failure", recvErr)
	}
	_ = sendErr // sender fails too (its CA doesn't trust the honest side)
}

func TestC7_StolenNameRejected(t *testing.T) {
	// The adversary presents a valid certificate for its OWN name but
	// claims a different server name in the hello.
	w := newWorld(t)
	mallory, err := keys.NewIdentity(w.reg, names.Server("evil.org", "mallory"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Mallory uses her real cert but labels herself as s-a.
	w.a.Identity = keys.Identity{
		Name: names.Server("umn.edu", "s-a"),
		Keys: mallory.Keys,
		Cert: mallory.Cert,
	}
	a := testAgent(t, w.reg)
	_, recvErr, _ := w.exchange(t, a, nil)
	if !errors.Is(recvErr, ErrAuth) {
		t.Fatalf("recv = %v, want auth failure", recvErr)
	}
}

func TestC7_ReplayRejected(t *testing.T) {
	// The adversary records the (encrypted) agent frame and replays it
	// inside the same session. The per-direction counter nonce makes
	// the replay fail authentication.
	w := newWorld(t)
	a := testAgent(t, w.reg)

	l, err := w.net.Listen("b:7000")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	recvDone := make(chan error, 1)
	hosted := make(chan *agent.Agent, 2)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			recvDone <- err
			return
		}
		defer conn.Close()
		// Receive the real agent, then try to read ANOTHER agent from
		// the same session (the replayed frame).
		recvDone <- w.b.ServeConn(conn, nil, func(a *agent.Agent) { hosted <- a })
	}()

	conn, err := w.net.Dial("b:7000")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	s, err := w.a.connect(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.a.exchange(s, a); err != nil { // legitimate frame + ack
		t.Fatal(err)
	}
	// Replay: re-send the identical sealed bytes by rewinding the
	// counter, as a wire-level adversary would. The exchange sanitized
	// the agent and the codec is canonical, so Encode reproduces the
	// frame's plaintext exactly.
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s.sendCtr = 0
	if err := s.send(data); err != nil {
		t.Fatal(err)
	}
	err = <-recvDone
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("replayed frame accepted: %v", err)
	}
	if n := len(hosted); n != 1 {
		t.Fatalf("receiver hosted %d agents, want 1 (the replay must not be hosted)", n)
	}
}

func TestC7_DowngradeRejected(t *testing.T) {
	// A man-in-the-middle (or misconfigured peer) tries to run the
	// session without key agreement against a secure endpoint. The
	// secure side must refuse rather than silently fall back to
	// plaintext.
	w := newWorld(t)
	w.a.Plaintext = true // sender offers no key agreement
	a := testAgent(t, w.reg)
	_, recvErr, sendErr := w.exchange(t, a, nil)
	if recvErr == nil && sendErr == nil {
		t.Fatal("secure endpoint accepted a plaintext session")
	}
	if recvErr != nil && !errors.Is(recvErr, ErrAuth) {
		t.Logf("receiver error (acceptable, must not be nil): %v", recvErr)
	}
}

func TestTransferOverRealTCP(t *testing.T) {
	w := newWorld(t)
	a := testAgent(t, w.reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recvDone := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			recvDone <- err
			return
		}
		defer conn.Close()
		recvDone <- w.b.ServeConn(conn, nil, nil)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.a.deliver(conn, a); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
}

func containsSub(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func TestMalformedAgentFrameEndsSession(t *testing.T) {
	// An agent frame's plaintext must be exactly one agent encoding.
	// Anything else is nacked "malformed agent" and ends the session;
	// and accept is always told the handshake's peer, whatever the
	// frames carry.
	w := newWorld(t)
	a := testAgent(t, w.reg)
	a.SanitizeForTransfer()
	valid, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name  string
		frame []byte
	}{
		{"garbage", []byte("not an agent")},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fmt.Sprintf("b:%d", 7100+i)
			l, err := w.net.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			peers := make(chan names.Name, 4)
			accept := func(_ *agent.Agent, peer names.Name) error {
				peers <- peer
				return nil
			}
			served := make(chan error, 1)
			go func() {
				conn, err := l.Accept()
				if err != nil {
					served <- err
					return
				}
				defer conn.Close()
				served <- w.b.ServeConn(conn, accept, nil)
			}()
			conn, err := w.net.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			s, err := w.a.connect(conn)
			if err != nil {
				t.Fatal(err)
			}
			defer s.release()
			if err := w.a.exchange(s, a); err != nil {
				t.Fatalf("well-formed agent: %v", err)
			}
			if err := s.send(tc.frame); err != nil {
				t.Fatal(err)
			}
			frame, err := s.recv(false, 0)
			if err != nil {
				t.Fatalf("no ack for the malformed frame: %v", err)
			}
			k, err := parseAck(frame)
			if err != nil {
				t.Fatal(err)
			}
			if k.verdict != verdictReject || k.reason != "malformed agent" {
				t.Fatalf("ack = %+v, want reject \"malformed agent\"", k)
			}
			if err := <-served; !errors.Is(err, agent.ErrMalformed) {
				t.Fatalf("ServeConn = %v, want agent.ErrMalformed", err)
			}
			if _, err := s.recv(false, 0); err == nil {
				t.Fatal("session outlived a malformed agent frame")
			}
			close(peers)
			var got []names.Name
			for p := range peers {
				got = append(got, p)
			}
			if len(got) != 1 || got[0] != w.a.Identity.Name {
				t.Fatalf("accept saw peers %v, want exactly [%s]", got, w.a.Identity.Name)
			}
		})
	}
}

func TestAckEncoding(t *testing.T) {
	for _, k := range []ack{
		{verdict: verdictAccept},
		{verdict: verdictReject},
		{verdict: verdictReject, reason: "no capacity"},
		{verdict: verdictShed},
		{verdict: verdictShed, retryMillis: 127, reason: "rate"},
		{verdict: verdictShed, retryMillis: 128, reason: "concurrency"},
		{verdict: verdictShed, retryMillis: maxRetryAfterMillis},
	} {
		b := appendAck(nil, k)
		got, err := parseAck(b)
		if err != nil || got != k {
			t.Fatalf("ack %+v: encoded %x, parsed %+v, %v", k, b, got, err)
		}
	}
	over := binary.AppendUvarint([]byte{verdictShed}, maxRetryAfterMillis+1)
	for _, b := range [][]byte{
		nil,
		{0},
		{4},
		{verdictAccept, 0},
		{verdictShed},
		{verdictShed, 0x80},
		{verdictShed, 0x80, 0x00},
		{verdictShed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		over,
	} {
		if k, err := parseAck(b); !errors.Is(err, errMalformedAck) {
			t.Fatalf("ack %x parsed to %+v, %v; want errMalformedAck", b, k, err)
		}
	}
}
