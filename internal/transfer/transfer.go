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
// There is one session protocol: one handshake, then any number of
// sealed agent/ack exchanges. Senders reach it through Pool.Send, which
// keeps sessions open so the ed25519 + X25519 handshake is paid once
// per connection instead of once per agent; receivers serve it with
// ServeConn. An agent frame's plaintext is exactly the agent codec's
// bytes (agent.Encode); its ack is the hand-framed verdict described at
// ack.
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
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/resource"
)

// Errors.
var (
	ErrAuth      = errors.New("transfer: peer authentication failed")
	ErrIntegrity = errors.New("transfer: frame integrity check failed")
	ErrRejected  = errors.New("transfer: agent rejected by receiver")
	ErrTooLarge  = errors.New("transfer: frame exceeds size limit")
)

// errMalformedAck reports an ack frame that does not parse; the session
// carrying it is not used again.
var errMalformedAck = errors.New("transfer: malformed ack")

// MaxFrame bounds a single frame (handshake message or sealed agent).
const MaxFrame = 16 << 20

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
	// TransferTimeout bounds a sender's handshake and each agent/ack
	// exchange it runs, and a receiver's wait for the rest of an agent
	// frame once its header arrived; zero means no overall deadline. A
	// stalled peer or a connection that silently stops draining then
	// fails with a timeout instead of wedging the dispatching goroutine
	// forever.
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
}

type authMsg struct {
	Sig []byte // signature over the handshake transcript
}

// Ack verdicts: the first byte of every ack frame.
const (
	verdictAccept byte = 1
	verdictReject byte = 2
	verdictShed   byte = 3
)

// maxRetryAfterMillis keeps a shed's retry-after hint representable as
// a time.Duration.
const maxRetryAfterMillis = uint64(math.MaxInt64 / int64(time.Millisecond))

// ack is the receiver's verdict on one agent frame. On the wire it is
// the verdict byte; for a shed, the retry-after hint in milliseconds as
// a minimal uvarint; then, for a reject or a shed, the reason's bytes
// to the end of the frame. An accept is the verdict byte alone. A shed
// is a load-shedding deferral (admission tier over limit): transient by
// contract, unlike a reject.
type ack struct {
	verdict     byte
	retryMillis uint64 // shed only
	reason      string // reject and shed only
}

func appendAck(b []byte, k ack) []byte {
	b = append(b, k.verdict)
	switch k.verdict {
	case verdictAccept:
		return b
	case verdictShed:
		b = binary.AppendUvarint(b, k.retryMillis)
	}
	return append(b, k.reason...)
}

// parseAck parses an ack frame. An unknown verdict, a truncated,
// overlong or non-minimal varint, a hint past maxRetryAfterMillis and
// bytes after an accept are errors, so every ack that parses re-encodes
// to the same bytes.
func parseAck(b []byte) (ack, error) {
	if len(b) == 0 {
		return ack{}, errMalformedAck
	}
	k := ack{verdict: b[0]}
	b = b[1:]
	switch k.verdict {
	case verdictAccept:
		if len(b) != 0 {
			return ack{}, errMalformedAck
		}
		return k, nil
	case verdictShed:
		v, n := binary.Uvarint(b)
		if n <= 0 || (n > 1 && b[n-1] == 0) || v > maxRetryAfterMillis {
			return ack{}, errMalformedAck
		}
		k.retryMillis, b = v, b[n:]
	case verdictReject:
	default:
		return ack{}, errMalformedAck
	}
	k.reason = string(b)
	return k, nil
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

// writeFrame sends a length-prefixed gob-encoded handshake message
// (session payloads go through session.send). Header and body go out in
// one Write from a pooled buffer.
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

// session is an established secure (or plaintext) channel.
type session struct {
	conn    net.Conn
	peer    names.Name
	aead    cipher.AEAD // nil in plaintext mode
	sendCtr uint64
	recvCtr uint64
	sendDir byte
	recvDir byte
	nbuf    [12]byte // GCM nonce scratch

	// wbuf frames outgoing payloads: [4-byte len][payload][tag room],
	// sealed in place and written with one conn.Write. rbuf is the
	// receive scratch, opened in place; abuf is the ack encode scratch.
	wbuf     *bytes.Buffer
	rbuf     []byte
	abuf     []byte
	released bool
}

func newSession(conn net.Conn, peer names.Name) *session {
	return &session{
		conn: conn,
		peer: peer,
		wbuf: framePool.Get().(*bytes.Buffer),
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
	}
	enc(a)
	enc(b)
	return h.Sum(nil)
}

// connect runs the initiator handshake on an established conn, bounded
// by HandshakeTimeout and, as the first step of a transfer attempt, by
// TransferTimeout. The returned session is what the Pool checks in and
// out; it carries no deadline into its idle life.
func (e *Endpoint) connect(conn net.Conn) (*session, error) {
	limit := e.HandshakeTimeout
	if e.TransferTimeout > 0 && (limit <= 0 || e.TransferTimeout < limit) {
		limit = e.TransferTimeout
	}
	return e.handshake(conn, true, limit)
}

// handshake runs the mutual-auth key agreement under a deadline of
// limit from now (none when limit is zero), cleared on return.
// initiator controls the message order; both sides end with the same
// session key.
func (e *Endpoint) handshake(conn net.Conn, initiator bool, limit time.Duration) (*session, error) {
	if limit > 0 {
		// Timeouts here are seconds-scale; the shared coarse clock
		// (internal/resource/clock.go) is millisecond-accurate, which is
		// plenty, and avoids a precise clock read per attempt.
		_ = conn.SetDeadline(resource.CoarseTime().Add(limit))
		defer conn.SetDeadline(time.Time{})
	}
	var ephKey *ecdh.PrivateKey
	mine := helloMsg{ServerName: e.Identity.Name, Cert: e.Identity.Cert}
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

	s := newSession(conn, theirs.ServerName)
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

// send frames one payload: header reserve, payload, then sealed in
// place and written with one Write. It is the only path a session's
// frames take out.
func (s *session) send(payload []byte) error {
	s.wbuf.Reset()
	s.wbuf.Write(hdrPad[:])
	s.wbuf.Write(payload)
	return s.flushFrame()
}

func (s *session) sendAck(k ack) error {
	s.abuf = appendAck(s.abuf[:0], k)
	return s.send(s.abuf)
}

// recv reads one frame into the session's receive scratch and opens it
// in place; a tampered, replayed or reordered frame fails
// authentication here. The returned slice aliases s.rbuf and is valid
// until the next recv. idleWait clears the read deadline while waiting
// for the frame header (a pooled session sits idle between transfers),
// then applies exchange as the deadline for the frame body and, via
// SetDeadline, the rest of the exchange.
func (s *session) recv(idleWait bool, exchange time.Duration) ([]byte, error) {
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

// exchange runs one agent/ack exchange on an established session under
// TransferTimeout: the agent is sanitized, encoded and framed, and the
// receiver's verdict is awaited. The deadline is cleared on return so
// the session can idle in the pool.
func (e *Endpoint) exchange(s *session, a *agent.Agent) error {
	if e.TransferTimeout > 0 {
		_ = s.conn.SetDeadline(resource.CoarseTime().Add(e.TransferTimeout))
		defer s.conn.SetDeadline(time.Time{})
	}
	a.SanitizeForTransfer()
	data, err := a.Encode()
	if err != nil {
		return err
	}
	if err := s.send(data); err != nil {
		return err
	}
	frame, err := s.recv(false, 0)
	if err != nil {
		return err
	}
	k, err := parseAck(frame)
	if err != nil {
		return err
	}
	switch k.verdict {
	case verdictShed:
		// Reconstruct the typed shed error sender-side: it matches
		// admission.ErrShed (transient to the retry classifier, NOT
		// ErrRejected) and carries the receiver's retry-after hint.
		return &admission.ShedError{
			Cause:      k.reason,
			RetryAfter: time.Duration(k.retryMillis) * time.Millisecond,
		}
	case verdictReject:
		return fmt.Errorf("%w: %s", ErrRejected, k.reason)
	}
	if e.OnAck != nil {
		e.OnAck(a, s.peer, s.conn.RemoteAddr().String())
	}
	return nil
}

// receiveOne accepts one agent exchange on an established session. The
// agent's sender is the session's authenticated peer, which is what
// accept is told: a server cannot claim another server sent an agent.
// The returned agent is nil when the accept callback rejected it (the
// nack has been sent; the session remains usable). fatal reports that
// the session is no longer usable — an I/O error or a frame that is not
// an agent.
func (e *Endpoint) receiveOne(s *session, accept func(*agent.Agent, names.Name) error) (a *agent.Agent, fatal bool, err error) {
	frame, err := s.recv(true, e.TransferTimeout)
	if err != nil {
		return nil, true, err
	}
	a, err = agent.Decode(frame)
	if err != nil {
		_ = s.sendAck(ack{verdict: verdictReject, reason: "malformed agent"})
		return nil, true, err
	}
	if accept != nil {
		if err := accept(a, s.peer); err != nil {
			// A load-shed travels as its own verdict (not a plain
			// reject): the sender reconstructs a transient ShedError
			// with the retry-after hint instead of a permanent
			// ErrRejected.
			k := ack{verdict: verdictReject, reason: err.Error()}
			var shed *admission.ShedError
			if errors.As(err, &shed) {
				k = ack{verdict: verdictShed, reason: shed.Cause}
				if ms := shed.RetryAfter.Milliseconds(); ms > 0 {
					k.retryMillis = uint64(ms)
				}
			} else {
				err = fmt.Errorf("%w: %v", ErrRejected, err)
			}
			if ackErr := s.sendAck(k); ackErr != nil {
				return nil, true, ackErr
			}
			// An application-level rejection does not poison the
			// channel: the next agent on this session may be welcome.
			return nil, false, err
		}
	}
	if err := s.sendAck(ack{verdict: verdictAccept}); err != nil {
		return nil, true, err
	}
	return a, false, nil
}

// ServeConn accepts a stream of agent transfers on conn: one handshake,
// then agent/ack exchanges until the peer closes the connection (or a
// fatal protocol error). Each accepted agent is passed to handle before
// the next exchange begins — handle should hand off quickly (the server
// spawns a hosting goroutine). The returned error is nil for a cleanly
// closed session.
func (e *Endpoint) ServeConn(conn net.Conn, accept func(*agent.Agent, names.Name) error, handle func(*agent.Agent)) error {
	s, err := e.handshake(conn, false, e.HandshakeTimeout)
	if err != nil {
		return err
	}
	defer s.release()
	for {
		a, fatal, err := e.receiveOne(s, accept)
		switch {
		case err == nil:
			if handle != nil {
				handle(a)
			}
		case fatal:
			if errors.Is(err, io.EOF) {
				return nil // peer closed between exchanges
			}
			return err
		}
	}
}
