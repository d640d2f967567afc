//go:build linux && !arm

package cas

import (
	"os"
	"syscall"
)

// startWriteback asks the kernel to begin writing f's dirty pages in
// [off, off+n) to the device without waiting for them. It promises
// nothing about durability — only Flush's fsync does — and a failure is
// ignored for that reason.
func startWriteback(f *os.File, off, n int64) {
	const syncFileRangeWrite = 2 // SYNC_FILE_RANGE_WRITE
	_ = syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWrite)
}
