package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance identifies what produced a run's numbers.
type provenance struct {
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
}

func (p provenance) String() string {
	return fmt.Sprintf("commit=%s source_sha256=%s seed=%d GOMAXPROCS=%d nproc=%d go=%s",
		p.Commit, p.Source, p.Seed, p.GOMAXPROCS, p.NumCPU, p.GoVersion)
}

// currentProvenance takes the commit from the VCS stamp the Go
// toolchain puts in the binary when it is built inside a git checkout
// ("none" otherwise; "+modified" when the tree had uncommitted changes)
// and hashes the Go sources and module files under the working
// directory, so runs from an exported tree can still be matched to
// their source.
func currentProvenance(seed int64) provenance {
	return provenance{
		Commit:     vcsCommit(),
		Source:     sourceDigest("."),
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

func vcsCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	commit, modified := "none", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified && commit != "none" {
		commit += "+modified"
	}
	return commit
}

// sourceDigest hashes every .go, go.mod and go.sum file under root,
// skipping hidden directories (build outputs, VCS data).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
