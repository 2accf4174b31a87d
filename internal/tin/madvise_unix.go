//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package tin

import (
	"os"
	"syscall"
)

// Gated more narrowly than mmap_unix.go's `unix` tag: syscall.Madvise is
// absent on solaris/aix/illumos, where mmap itself still works. Those
// platforms get the no-op stub and plain mmap behaviour.

// adviseRandom issues MADV_RANDOM for the byte range [off, off+n) of the
// mapped region, telling the kernel not to run sequential readahead over
// it. Advice, not a contract: the kernel may ignore it, and failures are
// reported but never fatal — the mapping works identically without it.
// madvise requires a page-aligned start, so the range is widened down to
// the enclosing page boundary (the few extra header/offset bytes this
// covers are resident anyway).
func adviseRandom(data []byte, off, n int64) error {
	if n <= 0 || off < 0 || off >= int64(len(data)) {
		return nil
	}
	page := int64(os.Getpagesize())
	start := off &^ (page - 1)
	end := off + n
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	if start >= end {
		return nil
	}
	return syscall.Madvise(data[start:end], syscall.MADV_RANDOM)
}
