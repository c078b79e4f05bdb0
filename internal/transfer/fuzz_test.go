package transfer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzParseAck feeds arbitrary bytes to the ack parser: it must not
// panic, every input it accepts must re-encode to the same bytes, and
// everything else must be errMalformedAck.
func FuzzParseAck(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		k, err := parseAck(b)
		if err != nil {
			if !errors.Is(err, errMalformedAck) {
				t.Fatalf("parseAck(%x) = %v, want errMalformedAck", b, err)
			}
			return
		}
		if again := appendAck(nil, k); !bytes.Equal(again, b) {
			t.Fatalf("ack %x parsed to %+v, re-encodes to %x", b, k, again)
		}
	})
}

// FuzzReadHandshakeFrame feeds arbitrary bytes to the handshake frame
// reader as a hello and as an auth message: it must not panic, a
// length prefix past MaxFrame must fail with ErrTooLarge, and whatever
// decodes must re-encode to a frame that decodes and re-encodes to the
// same bytes.
func FuzzReadHandshakeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tooLarge := len(data) >= 4 && binary.BigEndian.Uint32(data) > MaxFrame
		var hello helloMsg
		checkHandshakeFrame(t, data, tooLarge, &hello, func() any { return new(helloMsg) })
		var auth authMsg
		checkHandshakeFrame(t, data, tooLarge, &auth, func() any { return new(authMsg) })
	})
}

func checkHandshakeFrame(t *testing.T, data []byte, tooLarge bool, v any, fresh func() any) {
	t.Helper()
	err := readFrame(bytes.NewReader(data), v)
	if tooLarge && !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame read as %v, want ErrTooLarge", err)
	}
	if err != nil {
		return
	}
	var first bytes.Buffer
	if err := writeFrame(&first, v); err != nil {
		t.Fatalf("decoded %T does not re-encode: %v", v, err)
	}
	again := fresh()
	if err := readFrame(bytes.NewReader(first.Bytes()), again); err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", v, err)
	}
	var second bytes.Buffer
	if err := writeFrame(&second, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%T re-encoding is not stable:\n first  %x\n second %x", v, first.Bytes(), second.Bytes())
	}
}
