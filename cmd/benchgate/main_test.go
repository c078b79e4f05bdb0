package main

import (
	"strings"
	"testing"
)

func TestParseReadsCPUHeaderAndResults(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz  
BenchmarkC1_AccessDesigns/proxy-2         	 8564384	        68.22 ns/op
BenchmarkC1_AccessDesigns/proxy-2         	 8837460	        69.27 ns/op	       0 B/op
BenchmarkC7_TransferSecurity/secure-2     	    1000	     12345 ns/op
PASS
`
	b, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if b.cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", b.cpu)
	}
	if got := b.results["BenchmarkC1_AccessDesigns/proxy"]; len(got) != 2 || got[0] != 68.22 || got[1] != 69.27 {
		t.Fatalf("proxy samples = %v", got)
	}
	if got := b.results["BenchmarkC7_TransferSecurity/secure"]; len(got) != 1 || got[0] != 12345 {
		t.Fatalf("secure samples = %v", got)
	}
}

func TestParseWithoutCPUHeader(t *testing.T) {
	b, err := parse(strings.NewReader("BenchmarkX-8   10   5.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b.cpu != "" || len(b.results["BenchmarkX"]) != 1 {
		t.Fatalf("parsed %+v", b)
	}
	if cpuOrUnknown(b.cpu) == "" {
		t.Fatal("a missing header renders as empty")
	}
}
