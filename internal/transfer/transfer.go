// Package transfer implements the server-to-server agent transfer
// protocol (§2, §4): "the primary function of this protocol is to
// securely transfer an agent from one server to another."
//
// Security properties against the paper's open-network threat model:
//
//   - mutual authentication: both endpoints prove possession of the
//     private key matching a CA-certified server certificate, over
//     fresh nonces (no replayable handshakes);
//   - confidentiality and integrity: an X25519 ephemeral key agreement
//     bound to the authenticated transcript yields an AES-GCM session
//     key; every frame is sealed;
//   - replay protection: GCM nonces are per-direction counters, so a
//     recorded frame re-injected later (or reordered) fails to
//     authenticate.
//
// A plaintext mode exists solely as the baseline for experiment C7's
// "cost of security" measurement.
//
// Sessions are versioned. A version-1 session (negotiated via a byte in
// the hello; absent = version 0) stays open after a transfer and
// carries a stream of agent/ack exchanges, which is what the channel
// Pool builds on: the ed25519 + X25519 handshake is paid once per
// connection instead of once per agent. Version-0 peers (older
// binaries, or the single-shot SendAgent/ReceiveAgent API) interoperate
// transparently — the session is simply not reused.
package transfer

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/resource"
	"repro/internal/vm/analysis"
)

// Errors.
var (
	ErrAuth      = errors.New("transfer: peer authentication failed")
	ErrIntegrity = errors.New("transfer: frame integrity check failed")
	ErrRejected  = errors.New("transfer: agent rejected by receiver")
	ErrTooLarge  = errors.New("transfer: frame exceeds size limit")
)

// MaxFrame bounds a single frame (handshake message or sealed agent).
const MaxFrame = 16 << 20

// SessionVersion is the highest session protocol version this build
// speaks. Version 0 is the original single-shot protocol (one agent,
// one ack, close); version 1 keeps the session open for a stream of
// agent/ack exchanges with persistent per-direction gob codecs. The
// negotiated version is min(initiator, responder), so either side can
// force single-shot behaviour.
const SessionVersion = 1

// Endpoint is one side of the transfer protocol: a server identity plus
// the CA verifier used to check peers.
type Endpoint struct {
	Identity keys.Identity
	Verifier keys.Verifier
	// Plaintext disables the cryptographic channel (benchmark
	// baseline only).
	Plaintext bool
	// HandshakeTimeout bounds the handshake; zero means no deadline.
	HandshakeTimeout time.Duration
	// TransferTimeout bounds one whole SendAgent / ReceiveAgent
	// exchange (handshake, agent payload, ack); zero means no overall
	// deadline. A stalled peer or a connection that silently stops
	// draining then fails with a timeout instead of wedging the
	// dispatching goroutine forever.
	TransferTimeout time.Duration
	// OnAck, when set, runs after a receiver accepts an agent this
	// endpoint sent: receiver is the session's authenticated peer and
	// addr the connection's remote address. The accept ack already
	// proves "the agent now lives at addr", so the sender's naming
	// layer can rebind and push forwarding hints by piggybacking on
	// it — zero extra round-trips, no wire change. The hook runs on
	// the sending goroutine; keep it cheap and never let it block on
	// the network.
	OnAck func(a *agent.Agent, receiver names.Name, addr string)
}

// --- wire messages -----------------------------------------------------

type helloMsg struct {
	ServerName names.Name
	Cert       keys.Certificate
	Nonce      [32]byte
	EphPub     []byte // X25519 public key; empty in plaintext mode
	// Version is the sender's maximum session version. Gob omits zero
	// values, so a hello from an older binary decodes as Version 0 —
	// the single-shot protocol — and an old binary ignores the field
	// entirely; both directions of the upgrade interoperate.
	Version uint8
}

type authMsg struct {
	Sig []byte // signature over the handshake transcript
}

type agentMsg struct {
	Sender names.Name
	Data   []byte // agent.Encode output (the agent codec)
	// Manifest surfaces the agent's declared access manifest in the
	// envelope, so a receiver sees the claimed capability needs before
	// (and independently of) decoding the full agent. It must agree
	// with the manifest inside Data; a mismatch is rejected.
	Manifest *analysis.Manifest
}

type ackMsg struct {
	Accepted bool
	Reason   string
	// Shed marks a load-shedding rejection (admission tier over limit):
	// transient by contract, unlike an ordinary nack, and carrying an
	// optional retry-after hint in milliseconds. Gob omits zero values,
	// so acks from (and to) older binaries interoperate: a plain nack
	// decodes with Shed false, and an old sender ignores both fields.
	Shed             bool
	RetryAfterMillis int64
}

// framePool recycles the scratch buffers behind every frame encode and
// decode: steady-state transfers on a warm session allocate no framing
// memory.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// hdrPad reserves space for the 4-byte length prefix at the front of a
// frame buffer; the real length is patched in before the single Write.
var hdrPad [4]byte

// gcmTagSize is AES-GCM's authentication-tag overhead; tagPad reserves
// room for it in the frame buffer ahead of sealing in place.
const gcmTagSize = 16

var tagPad [gcmTagSize]byte

// writeFrame sends a length-prefixed gob-encoded message (handshake
// messages; session payloads go through writeMsg). Header and body go
// out in one Write from a pooled buffer.
func writeFrame(w io.Writer, v any) error {
	buf := framePool.Get().(*bytes.Buffer)
	defer framePool.Put(buf)
	buf.Reset()
	buf.Write(hdrPad[:])
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("transfer: encode: %w", err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	_, err := w.Write(b)
	return err
}

// readFrame receives a length-prefixed gob-encoded message.
func readFrame(r io.Reader, v any) error {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return ErrTooLarge
	}
	buf := framePool.Get().(*bytes.Buffer)
	defer framePool.Put(buf)
	buf.Reset()
	buf.Grow(int(n))
	data := buf.Bytes()[:n]
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	// Gob copies everything it keeps, so the pooled backing array is
	// safe to reuse after Decode returns.
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// frameFeeder hands a session's persistent gob decoder the plaintext of
// the current frame. Frames align with Encode calls on the peer, so one
// Decode consumes exactly one frame; EOF between frames is never
// surfaced because the next frame is fed before the next Decode.
type frameFeeder struct{ data []byte }

func (f *frameFeeder) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// session is an established secure (or plaintext) channel.
type session struct {
	conn    net.Conn
	peer    names.Name
	version uint8       // negotiated session version
	aead    cipher.AEAD // nil in plaintext mode
	sendCtr uint64
	recvCtr uint64
	sendDir byte
	recvDir byte
	nbuf    [12]byte // GCM nonce scratch

	// wbuf frames outgoing messages: [4-byte len][payload][tag room],
	// sealed in place and written with one conn.Write. rbuf is the
	// receive scratch, opened in place. For version >= 1 the gob
	// codecs persist for the session's life, so type descriptors cross
	// the wire once per session instead of once per message.
	wbuf     *bytes.Buffer
	rbuf     []byte
	enc      *gob.Encoder
	feed     *frameFeeder
	dec      *gob.Decoder
	released bool
}

func newSession(conn net.Conn, peer names.Name, version uint8) *session {
	return &session{
		conn:    conn,
		peer:    peer,
		version: version,
		wbuf:    framePool.Get().(*bytes.Buffer),
		feed:    &frameFeeder{},
	}
}

// release returns the session's pooled buffers. Safe to call more than
// once; the session must not be used afterwards.
func (s *session) release() {
	if s.released {
		return
	}
	s.released = true
	framePool.Put(s.wbuf)
	s.wbuf = nil
	s.rbuf = nil
}

// transcriptHash binds the session key and signatures to every
// handshake field, preventing mix-and-match attacks.
func transcriptHash(a, b helloMsg) []byte {
	h := sha256.New()
	enc := func(m helloMsg) {
		h.Write([]byte(m.ServerName.String()))
		h.Write(m.Cert.PublicKey)
		h.Write(m.Nonce[:])
		h.Write(m.EphPub)
		// The version byte is deliberately NOT part of the transcript:
		// old binaries hash exactly these four fields, and including a
		// new one would break their signature check against upgraded
		// peers. A stripped version byte can only downgrade a session
		// to single-shot (version 0) — every security property of the
		// channel is identical across versions, so the worst a
		// downgrade costs is handshake amortization.
	}
	enc(a)
	enc(b)
	return h.Sum(nil)
}

// handshake runs the mutual-auth key agreement. initiator controls the
// message order; both sides end with the same session key. maxVersion
// caps the session version this side offers (the negotiated version is
// the minimum of both offers). A non-zero outer deadline (the
// transfer-wide one) is restored on exit so the handshake's own tighter
// deadline does not cancel it.
func (e *Endpoint) handshake(conn net.Conn, initiator bool, outer time.Time, maxVersion uint8) (*session, error) {
	if e.HandshakeTimeout > 0 {
		// Timeouts here are seconds-scale; the shared coarse clock
		// (internal/resource/clock.go) is millisecond-accurate, which is
		// plenty, and avoids a precise clock read per attempt.
		d := resource.CoarseTime().Add(e.HandshakeTimeout)
		if !outer.IsZero() && outer.Before(d) {
			d = outer
		}
		_ = conn.SetDeadline(d)
		defer conn.SetDeadline(outer)
	}
	var ephKey *ecdh.PrivateKey
	mine := helloMsg{ServerName: e.Identity.Name, Cert: e.Identity.Cert, Version: maxVersion}
	if _, err := rand.Read(mine.Nonce[:]); err != nil {
		return nil, err
	}
	if !e.Plaintext {
		var err error
		ephKey, err = ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		mine.EphPub = ephKey.PublicKey().Bytes()
	}

	var theirs helloMsg
	if initiator {
		if err := writeFrame(conn, mine); err != nil {
			return nil, err
		}
		if err := readFrame(conn, &theirs); err != nil {
			return nil, err
		}
	} else {
		if err := readFrame(conn, &theirs); err != nil {
			return nil, err
		}
		if err := writeFrame(conn, mine); err != nil {
			return nil, err
		}
	}

	// Certificate checks: CA signature, validity, and that the peer
	// is certified under the name it claims.
	if err := e.Verifier.Check(theirs.Cert, time.Now()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAuth, err)
	}
	if theirs.Cert.Subject != theirs.ServerName {
		return nil, fmt.Errorf("%w: hello name %s does not match cert subject %s",
			ErrAuth, theirs.ServerName, theirs.Cert.Subject)
	}

	var ts []byte
	if initiator {
		ts = transcriptHash(mine, theirs)
	} else {
		ts = transcriptHash(theirs, mine)
	}

	// Exchange transcript signatures (initiator first), proving each
	// side holds the certified private key *for this handshake*.
	mySig := authMsg{Sig: e.Identity.Keys.Sign(ts)}
	var theirSig authMsg
	if initiator {
		if err := writeFrame(conn, mySig); err != nil {
			return nil, err
		}
		if err := readFrame(conn, &theirSig); err != nil {
			return nil, err
		}
	} else {
		if err := readFrame(conn, &theirSig); err != nil {
			return nil, err
		}
		if err := writeFrame(conn, mySig); err != nil {
			return nil, err
		}
	}
	if !keys.Verify(theirs.Cert.PublicKey, ts, theirSig.Sig) {
		return nil, fmt.Errorf("%w: bad transcript signature from %s", ErrAuth, theirs.ServerName)
	}

	version := maxVersion
	if theirs.Version < version {
		version = theirs.Version
	}
	s := newSession(conn, theirs.ServerName, version)
	if initiator {
		s.sendDir, s.recvDir = 1, 2
	} else {
		s.sendDir, s.recvDir = 2, 1
	}
	if e.Plaintext {
		return s, nil
	}
	if len(theirs.EphPub) == 0 {
		return nil, fmt.Errorf("%w: peer offered no key agreement", ErrAuth)
	}
	peerPub, err := ecdh.X25519().NewPublicKey(theirs.EphPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAuth, err)
	}
	shared, err := ephKey.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAuth, err)
	}
	// Session key = H(shared || transcript): binds the key to the
	// authenticated identities and nonces.
	kh := sha256.New()
	kh.Write(shared)
	kh.Write(ts)
	block, err := aes.NewCipher(kh.Sum(nil))
	if err != nil {
		return nil, err
	}
	s.aead, err = cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// transferDeadline applies TransferTimeout to conn and returns the
// resulting absolute deadline (zero when the timeout is unset). Like
// every transfer deadline it is computed on the shared coarse clock.
func (e *Endpoint) transferDeadline(conn net.Conn) time.Time {
	if e.TransferTimeout <= 0 {
		return time.Time{}
	}
	d := resource.CoarseTime().Add(e.TransferTimeout)
	_ = conn.SetDeadline(d)
	return d
}

// nonce fills the session's 12-byte GCM nonce scratch for direction dir
// and counter ctr.
func (s *session) nonce(dir byte, ctr uint64) []byte {
	s.nbuf[0] = dir
	binary.BigEndian.PutUint64(s.nbuf[4:], ctr)
	return s.nbuf[:]
}

// flushFrame seals wbuf's payload in place (the buffer already holds
// the 4-byte header reserve followed by the plaintext), patches the
// length prefix, and writes header + ciphertext with a single Write.
func (s *session) flushFrame() error {
	if s.aead != nil {
		// Reserve the GCM tag room, then seal with dst = plaintext[:0]
		// — the exact-overlap aliasing cipher.AEAD permits — so the
		// ciphertext lands where the plaintext was, no copy.
		s.wbuf.Write(tagPad[:])
		b := s.wbuf.Bytes()
		plain := b[4 : len(b)-gcmTagSize]
		sealed := s.aead.Seal(plain[:0], s.nonce(s.sendDir, s.sendCtr), plain, nil)
		s.sendCtr++
		binary.BigEndian.PutUint32(b[:4], uint32(len(sealed)))
		_, err := s.conn.Write(b[:4+len(sealed)])
		return err
	}
	b := s.wbuf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	_, err := s.conn.Write(b)
	return err
}

// writeMsg gob-encodes v straight into the session's frame buffer and
// sends it as one sealed frame: no intermediate encode buffer, no
// separate seal allocation, one Write. On version >= 1 sessions the
// encoder persists, so gob type descriptors are transmitted once per
// session rather than once per message.
func (s *session) writeMsg(v any) error {
	s.wbuf.Reset()
	s.wbuf.Write(hdrPad[:])
	var err error
	if s.version >= 1 {
		if s.enc == nil {
			s.enc = gob.NewEncoder(s.wbuf)
		}
		err = s.enc.Encode(v)
	} else {
		err = gob.NewEncoder(s.wbuf).Encode(v)
	}
	if err != nil {
		return fmt.Errorf("transfer: encode: %w", err)
	}
	return s.flushFrame()
}

// send seals (or passes through) one raw payload. Kept for tests that
// drive the frame layer directly; protocol messages use writeMsg.
func (s *session) send(payload []byte) error {
	s.wbuf.Reset()
	s.wbuf.Write(hdrPad[:])
	s.wbuf.Write(payload)
	return s.flushFrame()
}

// readPayload reads one frame into the session's receive scratch and
// opens it in place. The returned slice aliases s.rbuf and is valid
// until the next read. idleWait clears the read deadline while waiting
// for the frame header (a pooled session sits idle between transfers),
// then applies exchange as the deadline for the frame body and, via
// SetDeadline, the rest of the exchange.
func (s *session) readPayload(idleWait bool, exchange time.Duration) ([]byte, error) {
	var lenBuf [4]byte
	if idleWait {
		_ = s.conn.SetDeadline(time.Time{})
	}
	if _, err := io.ReadFull(s.conn, lenBuf[:]); err != nil {
		return nil, err
	}
	if idleWait && exchange > 0 {
		_ = s.conn.SetDeadline(resource.CoarseTime().Add(exchange))
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return nil, ErrTooLarge
	}
	if cap(s.rbuf) < int(n) {
		s.rbuf = make([]byte, n)
	}
	data := s.rbuf[:n]
	if _, err := io.ReadFull(s.conn, data); err != nil {
		return nil, err
	}
	if s.aead == nil {
		return data, nil
	}
	plain, err := s.aead.Open(data[:0], s.nonce(s.recvDir, s.recvCtr), data, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIntegrity, err)
	}
	s.recvCtr++
	return plain, nil
}

// readMsg receives one frame and gob-decodes it into v. On version >= 1
// sessions the decoder persists across messages, mirroring writeMsg's
// persistent encoder.
func (s *session) readMsg(v any, idleWait bool, exchange time.Duration) error {
	plain, err := s.readPayload(idleWait, exchange)
	if err != nil {
		return err
	}
	if s.version >= 1 {
		s.feed.data = plain
		if s.dec == nil {
			s.dec = gob.NewDecoder(s.feed)
		}
		return s.dec.Decode(v)
	}
	return gob.NewDecoder(bytes.NewReader(plain)).Decode(v)
}

// recv reads and opens one payload, returning a copy the caller may
// keep. A tampered, replayed or reordered frame fails authentication
// here.
func (s *session) recv() ([]byte, error) {
	plain, err := s.readPayload(false, 0)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), plain...), nil
}

// connect dials nothing — conn is already established — but runs the
// initiator handshake offering session streaming. The returned session
// is what the Pool checks in and out.
func (e *Endpoint) connect(conn net.Conn) (*session, error) {
	s, err := e.handshake(conn, true, e.transferDeadline(conn), SessionVersion)
	if err != nil {
		return nil, err
	}
	// The handshake ran under the transfer deadline; a pooled session
	// must not inherit it into its idle lifetime.
	_ = conn.SetDeadline(time.Time{})
	return s, nil
}

// exchange runs one agent/ack exchange on an established session: the
// agent is sanitized, serialized and framed directly (no intermediate
// copy), and the receiver's verdict is awaited.
func (e *Endpoint) exchange(s *session, a *agent.Agent) error {
	a.SanitizeForTransfer()
	data, err := a.Encode()
	if err != nil {
		return err
	}
	if err := s.writeMsg(agentMsg{
		Sender:   e.Identity.Name,
		Data:     data,
		Manifest: a.Manifest,
	}); err != nil {
		return err
	}
	var ack ackMsg
	if err := s.readMsg(&ack, false, 0); err != nil {
		return err
	}
	if !ack.Accepted {
		if ack.Shed {
			// Reconstruct the typed shed error sender-side: it matches
			// admission.ErrShed (transient to the retry classifier, NOT
			// ErrRejected) and carries the receiver's retry-after hint.
			return &admission.ShedError{
				Cause:      ack.Reason,
				RetryAfter: time.Duration(ack.RetryAfterMillis) * time.Millisecond,
			}
		}
		return fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}
	if e.OnAck != nil {
		e.OnAck(a, s.peer, s.conn.RemoteAddr().String())
	}
	return nil
}

// sendOn runs one transfer on a (possibly reused) session under the
// endpoint's per-exchange deadline; on success the deadline is cleared
// so the session can idle in the pool.
func (e *Endpoint) sendOn(s *session, a *agent.Agent) error {
	if e.TransferTimeout > 0 {
		_ = s.conn.SetDeadline(resource.CoarseTime().Add(e.TransferTimeout))
	}
	if err := e.exchange(s, a); err != nil {
		return err
	}
	_ = s.conn.SetDeadline(time.Time{})
	return nil
}

// SendAgent transfers an agent over conn and waits for the receiver's
// accept/reject decision. The agent's state is sanitized (host handles
// stripped) before serialization. This is the single-shot path — it
// offers session version 0, exactly the pre-pooling wire protocol; the
// Pool is the amortized path.
func (e *Endpoint) SendAgent(conn net.Conn, a *agent.Agent) error {
	s, err := e.handshake(conn, true, e.transferDeadline(conn), 0)
	if err != nil {
		return err
	}
	defer s.release()
	return e.exchange(s, a)
}

// receiveOne accepts one agent exchange on an established session. The
// returned agent is nil when the accept callback rejected it (the nack
// has been sent; the session remains usable). fatal reports that the
// session is no longer usable — an I/O error, a protocol violation, or
// a peer that lied about its identity.
func (e *Endpoint) receiveOne(s *session, idleWait bool, accept func(*agent.Agent, names.Name) error) (a *agent.Agent, fatal bool, err error) {
	var msg agentMsg
	if err := s.readMsg(&msg, idleWait, e.TransferTimeout); err != nil {
		return nil, true, err
	}
	// The transport sender must be the authenticated peer: a server
	// cannot forward agents while claiming another server sent them.
	if msg.Sender != s.peer {
		_ = s.sendAck(false, "sender identity mismatch")
		return nil, true, fmt.Errorf("%w: message sender %s != channel peer %s", ErrAuth, msg.Sender, s.peer)
	}
	a, err = agent.Decode(msg.Data)
	if err != nil {
		_ = s.sendAck(false, "malformed agent")
		return nil, true, err
	}
	// The envelope manifest and the agent's in-body manifest must be
	// the same declaration: a sender advertising narrower needs in the
	// envelope than the agent actually claims (or vice versa) is
	// rejected before admission even looks at the code.
	if !manifestsAgree(msg.Manifest, a.Manifest) {
		_ = s.sendAck(false, "manifest envelope mismatch")
		return nil, true, fmt.Errorf("%w: envelope manifest does not match agent manifest", ErrRejected)
	}
	if accept != nil {
		if err := accept(a, s.peer); err != nil {
			// A load-shed travels as its own ack shape (not a plain
			// nack): the sender reconstructs a transient ShedError with
			// the retry-after hint instead of a permanent ErrRejected.
			var shed *admission.ShedError
			if errors.As(err, &shed) {
				if ackErr := s.writeMsg(ackMsg{
					Reason:           shed.Cause,
					Shed:             true,
					RetryAfterMillis: shed.RetryAfter.Milliseconds(),
				}); ackErr != nil {
					return nil, true, ackErr
				}
				return nil, false, err
			}
			if ackErr := s.sendAck(false, err.Error()); ackErr != nil {
				return nil, true, ackErr
			}
			// An application-level rejection does not poison the
			// channel: the next agent on this session may be welcome.
			return nil, false, fmt.Errorf("%w: %v", ErrRejected, err)
		}
	}
	if err := s.sendAck(true, ""); err != nil {
		return nil, true, err
	}
	return a, false, nil
}

// ReceiveAgent accepts one agent transfer on conn. The accept callback
// inspects the decoded agent (credential verification, bundle
// verification, admission control) and returns an error to reject it;
// the rejection reason travels back to the sender. Like SendAgent this
// is the single-shot path (session version 0); servers accept streams
// with ServeConn.
func (e *Endpoint) ReceiveAgent(conn net.Conn, accept func(*agent.Agent, names.Name) error) (*agent.Agent, error) {
	s, err := e.handshake(conn, false, e.transferDeadline(conn), 0)
	if err != nil {
		return nil, err
	}
	defer s.release()
	a, _, err := e.receiveOne(s, false, accept)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// ServeConn accepts a stream of agent transfers on conn: one handshake,
// then agent/ack exchanges until the peer closes the connection (or a
// fatal protocol error). Each accepted agent is passed to handle before
// the next exchange begins — handle should hand off quickly (the server
// spawns a hosting goroutine). With a version-0 peer exactly one
// exchange runs, preserving single-shot interop. The returned error is
// nil for a cleanly closed session.
func (e *Endpoint) ServeConn(conn net.Conn, accept func(*agent.Agent, names.Name) error, handle func(*agent.Agent)) error {
	s, err := e.handshake(conn, false, time.Time{}, SessionVersion)
	if err != nil {
		return err
	}
	defer s.release()
	_ = conn.SetDeadline(time.Time{})
	for {
		a, fatal, err := e.receiveOne(s, true, accept)
		switch {
		case err == nil:
			if a != nil && handle != nil {
				handle(a)
			}
		case fatal:
			if errors.Is(err, io.EOF) {
				return nil // peer closed between exchanges
			}
			return err
		}
		if s.version < 1 {
			return nil
		}
	}
}

// manifestsAgree reports whether the envelope and in-agent manifests
// are the same declaration (both absent, or mutually covering).
func manifestsAgree(env, carried *analysis.Manifest) bool {
	if env == nil && carried == nil {
		return true
	}
	if env == nil || carried == nil {
		return false
	}
	return env.Covers(carried) && carried.Covers(env)
}

func (s *session) sendAck(ok bool, reason string) error {
	return s.writeMsg(ackMsg{Accepted: ok, Reason: reason})
}
