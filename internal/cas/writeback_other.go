//go:build !linux || arm

package cas

import "os"

// startWriteback is a hint only Linux can take (see writeback_linux.go;
// package syscall has no sync_file_range for 32-bit ARM);
// elsewhere the pages wait for the kernel's own writeback or the next
// Flush, as they always did.
func startWriteback(*os.File, int64, int64) {}
