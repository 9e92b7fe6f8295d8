package snapshot

import "hash/crc32"

// crcTable re-stamps footers in the corruption tests, independently of the
// frame package that computes them for Encode.
var crcTable = crc32.MakeTable(crc32.Castagnoli)
