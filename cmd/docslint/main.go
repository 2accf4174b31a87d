// Command docslint is the mechanical guard against documentation drift,
// run by the CI docs job over the repository root. It enforces four
// properties the prose docs promise but nothing else checks:
//
//   - Markdown links resolve: every relative link target in every *.md
//     file exists, and every #anchor (same-file or cross-file) matches a
//     heading in its target.
//   - Packages are documented: every internal/* package carries a package
//     comment (the DESIGN.md package table is only useful if godoc has
//     something to say).
//   - Flags are real: every `-flag` token on a README.md or DESIGN.md line
//     that names one of the CLI commands (flownetd, flowcalc, patternfind,
//     ...) is actually defined by that command — a renamed or removed flag
//     fails the build instead of rotting in a walkthrough.
//   - Metric families are real: every `flownet_*` token in README.md or
//     DESIGN.md is a string literal of internal/server/prom.go, where the
//     /metrics families are declared.
//
// Usage: docslint [root]   (root defaults to the current directory)
//
// Violations are listed one per line on stderr; the exit code is 1 when
// any were found, matching the lint-job convention.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"flownet/internal/cli"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	cli.Exit("docslint", run(root, os.Stdout, os.Stderr))
}

// run lints the tree at root, printing violations to stderr. It returns a
// non-nil error when any violation was found.
func run(root string, stdout, stderr io.Writer) error {
	var violations []string
	addf := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	mds, err := markdownFiles(root)
	if err != nil {
		return err
	}
	checkLinks(root, mds, addf)
	checkPackageComments(root, addf)
	checkFlagMentions(root, mds, addf)
	checkMetricMentions(root, mds, addf)

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, v)
		}
		return fmt.Errorf("%d documentation violation(s)", len(violations))
	}
	fmt.Fprintf(stdout, "docslint: %d markdown files, all links, package comments, flag and metric mentions check out\n", len(mds))
	return nil
}

// markdownFiles lists every tracked-looking *.md under root, skipping VCS
// internals and test fixtures.
func markdownFiles(root string) ([]string, error) {
	var mds []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "node_modules", ".claude":
				return filepath.SkipDir
			}
			return nil
		}
		switch d.Name() {
		case "PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md":
			return nil // externally generated reference dumps, not our docs
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			mds = append(mds, path)
		}
		return nil
	})
	sort.Strings(mds)
	return mds, err
}

var (
	// linkRE matches [text](target); targets with spaces are not used here.
	linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	// headingRE matches ATX headings, capturing the text.
	headingRE = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*#*\s*$`)
	// codeFenceRE strips fenced code blocks so their contents are not
	// mistaken for links or headings.
	codeFenceRE = regexp.MustCompile("(?ms)^```.*?^```\\s*$")
)

// slugify reduces a heading to its GitHub anchor form: lowercase, spaces
// to hyphens, everything but letters, digits, hyphens and underscores
// dropped.
func slugify(heading string) string {
	heading = strings.ReplaceAll(heading, "`", "")
	heading = strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= '0' && r <= '9'):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// anchorsOf returns the set of heading anchors in a markdown document.
func anchorsOf(content string) map[string]bool {
	anchors := make(map[string]bool)
	for _, m := range headingRE.FindAllStringSubmatch(codeFenceRE.ReplaceAllString(content, ""), -1) {
		anchors[slugify(m[1])] = true
	}
	return anchors
}

// checkLinks verifies every relative markdown link target and anchor.
func checkLinks(root string, mds []string, addf func(string, ...any)) {
	contents := make(map[string]string, len(mds))
	for _, md := range mds {
		raw, err := os.ReadFile(md)
		if err != nil {
			addf("%s: %v", md, err)
			continue
		}
		contents[md] = string(raw)
	}
	for _, md := range mds {
		content, ok := contents[md]
		if !ok {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(codeFenceRE.ReplaceAllString(content, ""), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; CI has no network, and availability is not drift
			}
			pathPart, anchor, _ := strings.Cut(target, "#")
			file := md
			if pathPart != "" {
				file = filepath.Join(filepath.Dir(md), pathPart)
				if _, err := os.Stat(file); err != nil {
					addf("%s: dead link %q: %s does not exist", md, target, file)
					continue
				}
			}
			if anchor == "" {
				continue
			}
			targetContent, ok := contents[file]
			if !ok {
				raw, err := os.ReadFile(file)
				if err != nil {
					continue // anchor into a non-markdown file: nothing to check
				}
				targetContent = string(raw)
				contents[file] = targetContent
			}
			if !anchorsOf(targetContent)[strings.ToLower(anchor)] {
				addf("%s: dead anchor %q: no heading in %s slugifies to #%s", md, target, file, anchor)
			}
		}
	}
}

// checkPackageComments asserts every internal/* package has a package
// comment on at least one of its files.
func checkPackageComments(root string, addf func(string, ...any)) {
	internal := filepath.Join(root, "internal")
	entries, err := os.ReadDir(internal)
	if err != nil {
		addf("%s: %v", internal, err)
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(internal, e.Name())
		fset := token.NewFileSet()
		documented, hasGo := false, false
		files, err := os.ReadDir(dir)
		if err != nil {
			addf("%s: %v", dir, err)
			continue
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
				continue
			}
			hasGo = true
			af, err := parser.ParseFile(fset, filepath.Join(dir, f.Name()), nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				addf("%s: %v", filepath.Join(dir, f.Name()), err)
				continue
			}
			if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if hasGo && !documented {
			addf("internal/%s: no package comment on any file (godoc renders nothing)", e.Name())
		}
	}
}

var (
	// flagDefRE matches flag definitions on a *flag.FlagSet: fs.Bool("x",
	// ...), fs.Duration("x", ...) and friends.
	flagDefRE = regexp.MustCompile(`\.\s*(?:Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)\(\s*"([^"]+)"`)
	// flagVarRE matches fs.Var(&v, "x", ...) definitions.
	flagVarRE = regexp.MustCompile(`\.\s*Var\(\s*[^,]+,\s*"([^"]+)"`)
	// flagMentionRE matches -flag tokens in prose and shell snippets. The
	// leading group keeps hyphenated words ("long-lived", "crash-safe")
	// from reading as flag mentions: the dash must follow a separator.
	flagMentionRE = regexp.MustCompile("(^|[\\s`'\"(=])-([a-z][a-z0-9-]*)")
)

// checkFlagMentions asserts that every -flag token on a README.md or
// DESIGN.md line naming a cmd/* command is a flag that command defines.
func checkFlagMentions(root string, mds []string, addf func(string, ...any)) {
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		addf("%s: %v", filepath.Join(root, "cmd"), err)
		return
	}
	flagsOf := make(map[string]map[string]bool)
	for _, c := range cmds {
		if !c.IsDir() {
			continue
		}
		set := make(map[string]bool)
		dir := filepath.Join(root, "cmd", c.Name())
		files, _ := os.ReadDir(dir)
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".go") {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				continue
			}
			for _, m := range flagDefRE.FindAllSubmatch(raw, -1) {
				set[string(m[1])] = true
			}
			for _, m := range flagVarRE.FindAllSubmatch(raw, -1) {
				set[string(m[1])] = true
			}
		}
		if len(set) > 0 {
			flagsOf[c.Name()] = set
		}
	}

	walkthroughLines(mds, func(md string, lineNo int, line string) {
		for cmd, flags := range flagsOf {
			if !strings.Contains(line, cmd) {
				continue
			}
			for _, m := range flagMentionRE.FindAllStringSubmatch(line, -1) {
				if !flags[m[2]] {
					addf("%s:%d: mentions %s flag -%s, which cmd/%s does not define", md, lineNo, cmd, m[2], cmd)
				}
			}
		}
	})
}

// walkthroughLines calls fn for every line of the README.md and DESIGN.md
// files among mds: the documents whose walkthroughs name flags and metrics.
func walkthroughLines(mds []string, fn func(md string, lineNo int, line string)) {
	for _, md := range mds {
		base := filepath.Base(md)
		if base != "README.md" && base != "DESIGN.md" {
			continue
		}
		raw, err := os.ReadFile(md)
		if err != nil {
			continue
		}
		for i, line := range strings.Split(string(raw), "\n") {
			fn(md, i+1, line)
		}
	}
}

var (
	metricDefRE     = regexp.MustCompile(`"(flownet_[a-z0-9_]+)"`)
	metricMentionRE = regexp.MustCompile(`flownet_[a-z0-9_]+`)
)

// checkMetricMentions asserts that every flownet_* token in README.md or
// DESIGN.md is a metric family internal/server/prom.go declares.
func checkMetricMentions(root string, mds []string, addf func(string, ...any)) {
	families := make(map[string]bool)
	prom, _ := os.ReadFile(filepath.Join(root, "internal", "server", "prom.go")) // no file, no families
	for _, m := range metricDefRE.FindAllSubmatch(prom, -1) {
		families[string(m[1])] = true
	}
	walkthroughLines(mds, func(md string, lineNo int, line string) {
		for _, name := range metricMentionRE.FindAllString(line, -1) {
			if !families[name] {
				addf("%s:%d: mentions metric family %s, which internal/server/prom.go does not declare", md, lineNo, name)
			}
		}
	})
}
