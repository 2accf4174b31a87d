package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"flownet/internal/store"
	"flownet/internal/tin"
)

// testdata/parent_format was written by the commit before internal/stream
// was folded into the store (9d2ed03): data/ is the directory that commit's
// store left behind after the script in writeParentFormatScript — an
// initial snapshot superseded by a checkpoint whose WAL carries a parked
// item, then append, deferred append, reindex, grow and grown-append
// records and one more parked item — and expected.json is what that
// commit's server answered after recovering a copy of it, before and after
// merging the pending buffer. Neither the formats nor the replay semantics
// may drift: a data directory must survive an upgrade.

type parentFormatAnswer struct {
	Path string `json:"path"`
	Body string `json:"body"`
}

type parentFormatExpected struct {
	Generation   uint64               `json:"generation"`
	Pending      int                  `json:"pending"`
	Answers      []parentFormatAnswer `json:"answers"`
	AfterReindex []parentFormatAnswer `json:"after_reindex"`
}

// copyTree copies the fixture into a scratch directory: recovery locks,
// truncates and cleans the directory it opens.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecoversParentFormatDataDir(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_format/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var want parentFormatExpected
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, "testdata/parent_format/data", dir)
	st, err := store.Open(withTestMmap(store.Config{Dir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	sh, ok := st.Get("fix")
	if !ok {
		t.Fatal("fixture network not recovered")
	}
	if sh.Generation() != want.Generation || sh.Pending() != want.Pending {
		t.Fatalf("recovered generation %d pending %d, want %d and %d",
			sh.Generation(), sh.Pending(), want.Generation, want.Pending)
	}
	ts := httptest.NewServer(New(Config{CacheSize: 8, AllowIngest: true, Store: st}).Handler())
	t.Cleanup(ts.Close)
	check := func(what string, answers []parentFormatAnswer) {
		t.Helper()
		for _, a := range answers {
			if status, _, body := get(t, ts, a.Path, nil); status != 200 || string(body) != a.Body {
				t.Errorf("%s, GET %s: status %d body %s, want %s", what, a.Path, status, body, a.Body)
			}
		}
	}
	check("recovered", want.Answers)
	if _, err := sh.Reindex(); err != nil {
		t.Fatal(err)
	}
	check("after reindex", want.AfterReindex)
}

// writeParentFormatScript is the mutation sequence the fixture was written
// with.
func writeParentFormatScript(t *testing.T, st *store.Store) {
	t.Helper()
	sh, err := st.Add("fix", buildNet(t, 6, []tin.BatchItem{
		{From: 0, To: 1, Time: 1, Qty: 5}, {From: 1, To: 2, Time: 2, Qty: 4},
		{From: 2, To: 0, Time: 3, Qty: 3}, {From: 1, To: 3, Time: 2.5, Qty: 2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	app := func(opts store.Options, wantErr bool, items ...store.Item) {
		t.Helper()
		if _, err := sh.Append(items, opts); (err != nil) != wantErr {
			t.Fatalf("append %v: err = %v, want error: %v", items, err, wantErr)
		}
	}
	park := store.Options{OnOutOfOrder: store.PolicyDefer}
	app(store.Options{}, false, store.Item{From: 0, To: 1, Time: 4, Qty: 2}, store.Item{From: 1, To: 2, Time: 5, Qty: 2})
	app(park, false, store.Item{From: 3, To: 0, Time: 1.5, Qty: 1})
	if err := sh.Snapshot(); err != nil {
		t.Fatal(err)
	}
	app(store.Options{}, false, store.Item{From: 2, To: 0, Time: 6, Qty: 4})
	app(park, false, store.Item{From: 0, To: 2, Time: 2.2, Qty: 1}, store.Item{From: 2, To: 3, Time: 7, Qty: 1})
	if _, err := sh.Reindex(); err != nil {
		t.Fatal(err)
	}
	app(store.Options{Grow: true}, true, store.Item{From: 1, To: 7, Time: 0.5, Qty: 1}) // rejected; the grow stays
	app(store.Options{Grow: true}, false, store.Item{From: 4, To: 9, Time: 8, Qty: 2})
	app(park, false, store.Item{From: 0, To: 1, Time: 3.3, Qty: 9})
}

// TestWritesParentFormatBytes: the same script, run by this tree, leaves
// byte-identical snapshot and WAL files.
func TestWritesParentFormatBytes(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	writeParentFormatScript(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"snapshot-g2.tinb", "wal-g2.log"} {
		want, err := os.ReadFile(filepath.Join("testdata/parent_format/data/fix", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "fix", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the parent commit's bytes (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "fix"))
	if len(entries) != 2 {
		t.Errorf("shard directory holds %d files, want exactly the snapshot/WAL pair", len(entries))
	}
}
