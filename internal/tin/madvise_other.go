//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package tin

// adviseRandom is a no-op where syscall.Madvise does not exist (windows,
// plan9, wasm, solaris/aix): mapped networks get plain mmap behaviour
// there.
func adviseRandom([]byte, int64, int64) error { return nil }
