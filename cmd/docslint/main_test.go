package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write creates path (and parents) with content.
func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lint runs the linter over root and returns (passed, stderr output).
func lint(t *testing.T, root string) (bool, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(root, &stdout, &stderr)
	return err == nil, stderr.String()
}

// scaffold lays out a minimal passing repo: one documented internal
// package, one cmd with a flag, one README mentioning it.
func scaffold(t *testing.T) string {
	root := t.TempDir()
	write(t, filepath.Join(root, "internal", "demo", "demo.go"),
		"// Package demo is documented.\npackage demo\n")
	write(t, filepath.Join(root, "cmd", "demod", "main.go"),
		"package main\nimport \"flag\"\nfunc main() {\n\tfs := flag.NewFlagSet(\"demod\", flag.ContinueOnError)\n\tfs.Bool(\"verbose\", false, \"\")\n}\n")
	write(t, filepath.Join(root, "README.md"),
		"# Demo\n\nRun `demod -verbose` against [the design](DESIGN.md#overview).\n")
	write(t, filepath.Join(root, "DESIGN.md"), "# Title\n\n## Overview\n\nSee [readme](README.md).\n")
	return root
}

func TestCleanTreePasses(t *testing.T) {
	if ok, out := lint(t, scaffold(t)); !ok {
		t.Fatalf("clean scaffold failed the lint:\n%s", out)
	}
}

func TestRepositoryPasses(t *testing.T) {
	// The linter's whole job is keeping this repository honest, so the
	// repository itself is a test fixture: doc drift fails the suite, not
	// just the CI docs job.
	if ok, out := lint(t, "../.."); !ok {
		t.Fatalf("repository docs drifted:\n%s", out)
	}
}

func TestDeadLink(t *testing.T) {
	root := scaffold(t)
	write(t, filepath.Join(root, "EXTRA.md"), "[gone](missing.md)\n")
	ok, out := lint(t, root)
	if ok || !strings.Contains(out, "missing.md") {
		t.Fatalf("dead link not reported (ok=%v):\n%s", ok, out)
	}
}

func TestDeadAnchor(t *testing.T) {
	root := scaffold(t)
	write(t, filepath.Join(root, "EXTRA.md"), "[gone](README.md#no-such-heading)\n")
	ok, out := lint(t, root)
	if ok || !strings.Contains(out, "no-such-heading") {
		t.Fatalf("dead anchor not reported (ok=%v):\n%s", ok, out)
	}
}

func TestAnchorInsideCodeFenceIgnored(t *testing.T) {
	root := scaffold(t)
	// A link-shaped string inside a code fence is not a link.
	write(t, filepath.Join(root, "EXTRA.md"), "# X\n\n```\n[shape](missing.md)\n```\n")
	if ok, out := lint(t, root); !ok {
		t.Fatalf("code-fence content treated as a link:\n%s", out)
	}
}

func TestUndocumentedPackage(t *testing.T) {
	root := scaffold(t)
	write(t, filepath.Join(root, "internal", "bare", "bare.go"), "package bare\n")
	ok, out := lint(t, root)
	if ok || !strings.Contains(out, "internal/bare") {
		t.Fatalf("undocumented package not reported (ok=%v):\n%s", ok, out)
	}
}

func TestUnknownFlagMention(t *testing.T) {
	root := scaffold(t)
	write(t, filepath.Join(root, "README.md"),
		"# Demo\n\nRun `demod -no-such-flag` for fun.\n")
	ok, out := lint(t, root)
	if ok || !strings.Contains(out, "-no-such-flag") {
		t.Fatalf("unknown flag mention not reported (ok=%v):\n%s", ok, out)
	}
}

func TestHyphenatedProseIsNotAFlag(t *testing.T) {
	root := scaffold(t)
	write(t, filepath.Join(root, "README.md"),
		"# Demo\n\ndemod is long-lived and crash-safe.\n")
	if ok, out := lint(t, root); !ok {
		t.Fatalf("hyphenated prose read as flag mentions:\n%s", out)
	}
}

func TestUnknownMetricMention(t *testing.T) {
	root := scaffold(t)
	write(t, filepath.Join(root, "internal", "server", "prom.go"),
		"// Package server is documented.\npackage server\n\nvar families = []string{\"flownet_requests_total\"}\n")
	write(t, filepath.Join(root, "README.md"),
		"# Demo\n\nWatch `flownet_requests_total{route}`, not flownet_request_total.\n")
	ok, out := lint(t, root)
	if ok || !strings.Contains(out, "flownet_request_total,") || strings.Contains(out, "flownet_requests_total") {
		t.Fatalf("want exactly the misspelt family reported (ok=%v):\n%s", ok, out)
	}
}
