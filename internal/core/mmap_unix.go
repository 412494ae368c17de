//go:build unix

package core

import (
	"fmt"
	"os"
	"syscall"
)

// mmapSupported reports whether this platform can serve an index from
// a read-only file mapping.
const mmapSupported = true

// mmapFile maps size bytes of f read-only and shared. MAP_SHARED (not
// PRIVATE) is what lets fleet members mapping the same index file
// share one set of physical pages. The price is that a write to the
// file after the open is visible through the mapping: every shard is
// CRC-verified once, at open, and an index file must not be rewritten
// in place while it is served (WriteIndexFile renames a new file into
// place instead).
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: cannot mmap %d bytes", size)
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("core: index size %d exceeds the address space", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("core: mmap: %w", err)
	}
	return data, nil
}

// munmapFile releases a mapping created by mmapFile.
func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}
