package main

import (
	"archive/tar"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// abMain measures a base revision against the working tree with identical
// benchmark code: it exports <rev> with git archive, copies the current
// bench/ over the export's, builds both binaries, runs them in alternating
// order for each pair and every workload of BENCHMARK.json for its
// run_seconds, and compares the two result sets.
func abMain(args []string) int {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	rev := fs.String("base", "", "git revision to measure the working tree against")
	pairs := fs.Int("pairs", 10, "pairs per workload; pair i uses seed i on both sides")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rev == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "bench ab: need -base <rev> and -pairs >= 1")
		return 2
	}
	if err := ab(*rev, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "bench ab:", err)
		return 2
	}
	dir := abDir(*rev)
	return compareMain([]string{"-base", filepath.Join(dir, "base"), "-head", filepath.Join(dir, "head")}, os.Stdout)
}

func abDir(rev string) string {
	return filepath.Join(outDir, "ab-"+strings.Map(func(r rune) rune {
		if r == '/' || r == '\\' || r == ':' || r == '~' || r == '^' {
			return '_'
		}
		return r
	}, rev))
}

func ab(rev string, pairs int) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(abDir(rev))
	if err != nil {
		return err
	}
	tree := filepath.Join(dir, "tree")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := exportRev(rev, tree); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(tree, "bench")); err != nil {
		return err
	}
	if err := copyTree("bench", filepath.Join(tree, "bench")); err != nil {
		return err
	}
	bins := map[string]string{"base": filepath.Join(dir, "bench-base"), "head": filepath.Join(dir, "bench-head")}
	roots := map[string]string{"base": tree, "head": "."}
	for side, bin := range bins {
		cmd := exec.Command("go", "-C", filepath.Join(roots[side], "bench"), "build", "-o", bin, ".")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building the %s side: %w", side, err)
		}
	}
	for i := 1; i <= pairs; i++ {
		order := []string{"base", "head"}
		if i%2 == 0 {
			order = []string{"head", "base"}
		}
		for _, wl := range sp.Workloads {
			w := wl.Name
			for _, side := range order {
				out := filepath.Join(dir, side, fmt.Sprintf("%s-s%d.json", w, i))
				fmt.Fprintf(os.Stderr, "bench ab: pair %d/%d %s %s\n", i, pairs, w, side)
				cmd := exec.Command(bins[side], "--workload", w, "--seed", fmt.Sprint(i),
					"--seconds", fmt.Sprint(sp.RunSeconds), "--trace", "0", "--out", out)
				cmd.Dir = roots[side]
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					var exit *exec.ExitError
					if !errors.As(err, &exit) || exit.ExitCode() != 1 {
						return fmt.Errorf("%s %s seed %d: %w", side, w, i, err)
					}
					// Exit 1 is a failed correctness check; the result file
					// records it and compare reports the digest.
				}
			}
		}
	}
	return nil
}

// exportRev writes the files of rev into dst, as git archive exports them.
func exportRev(rev, dst string) error {
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	xerr := untar(out, dst)
	if _, err := io.Copy(io.Discard, out); xerr == nil {
		xerr = err
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return xerr
}

func untar(r io.Reader, dst string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		name := filepath.Clean(h.Name)
		if filepath.IsAbs(name) || name == ".." || strings.HasPrefix(name, ".."+string(filepath.Separator)) {
			return fmt.Errorf("archive entry %q leaves the tree", h.Name)
		}
		path := filepath.Join(dst, name)
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := writeFile(path, tr, os.FileMode(h.Mode).Perm()); err != nil {
				return err
			}
		}
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return writeFile(target, f, info.Mode().Perm())
	})
}

func writeFile(path string, r io.Reader, perm os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
