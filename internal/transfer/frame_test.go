package transfer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/netsim"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := helloMsg{ServerName: names.Server("a", "b")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out helloMsg
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ServerName != in.ServerName {
		t.Fatalf("got %+v", out)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxFrame+1)
	buf.Write(lenBuf[:])
	var out helloMsg
	if err := readFrame(&buf, &out); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], 100)
	buf.Write(lenBuf[:])
	buf.WriteString("short")
	var out helloMsg
	if err := readFrame(&buf, &out); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

func TestSessionRecvTooLarge(t *testing.T) {
	nw := netsim.NewNetwork()
	l, err := nw.Listen("a:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], MaxFrame+1)
		_, _ = c.Write(lenBuf[:])
	}()
	c, err := nw.Dial("a:1")
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(c, names.Name{})
	if _, err := s.recv(false, 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestHandshakeTimeout(t *testing.T) {
	reg, err := keys.NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := keys.NewIdentity(reg, names.Server("umn.edu", "s"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ep := &Endpoint{Identity: id, Verifier: reg.Verifier(), HandshakeTimeout: 50 * time.Millisecond}

	nw := netsim.NewNetwork()
	l, err := nw.Listen("mute:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		// The peer accepts but never speaks.
		_, _ = l.Accept()
	}()
	conn, err := nw.Dial("mute:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := ep.connect(conn); err == nil {
		t.Fatal("handshake with mute peer succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the handshake")
	}
}

func TestPlaintextSessionFrames(t *testing.T) {
	nw := netsim.NewNetwork()
	l, err := nw.Listen("a:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		s := newSession(c, names.Name{})
		data, _ := s.recv(false, 0)
		done <- data
	}()
	c, err := nw.Dial("a:1")
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(c, names.Name{})
	if err := s.send([]byte("clear")); err != nil {
		t.Fatal(err)
	}
	if got := <-done; string(got) != "clear" {
		t.Fatalf("got %q", got)
	}
}
