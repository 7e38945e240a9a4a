package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// stamp identifies the host, toolchain and source a result was measured
// on, so that results from different hosts never compare silently.
type stamp struct {
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	GOARCH       string `json:"goarch"`
	GitRev       string `json:"git_rev"`   // "none" outside a git work tree
	GitDirty     string `json:"git_dirty"` // "true", "false" or "unknown"
	SourceSHA256 string `json:"source_sha256"`
	MatMulKernel string `json:"matmul_kernel"`
	VECMM        string `json:"vecmm"`
	MemLimit     int64  `json:"mem_limit"` // the Go heap limit in force, in bytes
	GOGC         string `json:"gogc"`
}

// hostFields are the stamp fields that must agree for two result sets
// to be compared; the revision and source are what a comparison varies.
func (s stamp) hostFields() map[string]string {
	return map[string]string{
		"cpu":           s.CPU,
		"nproc":         itoa(s.NumCPU),
		"gomaxprocs":    itoa(s.GOMAXPROCS),
		"go_version":    s.GoVersion,
		"goarch":        s.GOARCH,
		"matmul_kernel": s.MatMulKernel,
		"vecmm":         s.VECMM,
		"mem_limit":     strconv.FormatInt(s.MemLimit, 10),
		"gogc":          s.GOGC,
	}
}

// newStamp describes the current process, reading the source tree rooted
// at the working directory.
func newStamp() stamp {
	s := stamp{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOARCH:       runtime.GOARCH,
		GitRev:       "none",
		GitDirty:     "unknown",
		SourceSHA256: sourceDigest("."),
		MatMulKernel: tensor.MatMulKernel(),
		VECMM:        os.Getenv("VECMM"),
		MemLimit:     debug.SetMemoryLimit(-1),
		GOGC:         os.Getenv("GOGC"),
	}
	if s.GOGC == "" {
		s.GOGC = "100" // the runtime's default
	}
	if top, err := gitOutput("rev-parse", "--show-toplevel"); err == nil && sameDir(top, ".") {
		if rev, err := gitOutput("rev-parse", "HEAD"); err == nil {
			s.GitRev = rev
		}
		if st, err := gitOutput("status", "--porcelain", "--untracked-files=no"); err == nil {
			s.GitDirty = "false"
			if st != "" {
				s.GitDirty = "true"
			}
		}
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitOutput(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return strings.TrimSpace(string(out)), err
}

func sameDir(a, b string) bool {
	ai, err1 := os.Stat(a)
	bi, err2 := os.Stat(b)
	return err1 == nil && err2 == nil && os.SameFile(ai, bi)
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping hidden and build directories. It identifies the
// measured code where no git revision is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
