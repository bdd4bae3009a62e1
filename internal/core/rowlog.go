package core

// This file implements the row log: the file that holds one collection's
// rows. Rows are append-only and ascend by id within a collection, so
// they are stored as a log, not in a B+ tree. A log is a sequence of
// blocks, each
//
//	[CRC-32C u32][body length u32][row count u16][first id u48][body]
//
// little-endian, where the body is the block's rows, each framed as
//
//	[uvarint length][uvarint id delta][stored row]
//
// the stored row being the bytes rowCodec.encode wrote (or an older form
// the decoder reads). The first row of a block has delta 0 (its id is the
// header's), every later row's delta is at least 1, and each block's first
// id is above the previous block's last. The checksum covers the header
// after itself and the body, so any damage to a block is detected:
// readRowLog reports it as errCorrupt and never returns a row from it.
//
// A collection keeps the block it is filling, its tail, in memory and
// writes it once it reaches blockSize, and on Flush and Close, which
// also sync the file. A row larger than a block gets a block of its own.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// blockSize is the size at which a tail block is written. A stored row
// takes at least 6 B and its framing 2, so a block holds at most 512
// rows besides an oversized one: its 16-bit row count never overflows.
const blockSize = 4096

// blockHeader is the size of a block's header.
const blockHeader = 16

// maxLogID is the largest id a row log holds: a header holds its first
// id in 48 bits.
const maxLogID = 1<<48 - 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errLogClosed reports a commit to a collection whose row log was closed
// by its database's Close or its DropCollection.
var errLogClosed = errors.New("core: collection is closed")

// rowLogPath is the row log of the collection whose log key is key, in
// the database whose catalog is at dbPath. The key is a version the
// database allocated once, so the name never depends on the collection's
// name and never repeats across a drop and a re-create.
func rowLogPath(dbPath string, key uint64) string {
	return fmt.Sprintf("%s.%d.rows", dbPath, key)
}

// rowLog is a collection's open row log and the tail block it has not
// written yet. Its owner serializes every call (Collection.mu).
type rowLog struct {
	f        *os.File
	size     int64   // bytes written to f
	block    []byte  // the tail: header space, then its framed rows
	first    PatchID // the tail's first id
	last     PatchID // the last id appended, the next row's delta base
	count    int     // rows in the tail
	unsynced bool    // f holds writes not yet synced
}

// createRowLog creates (or empties) the row log at path.
func createRowLog(path string) (rowLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	return rowLog{f: f}, err
}

// append adds the stored row raw, whose id is above every id the log
// holds, to the tail, first writing the tail when raw would take it past
// blockSize, and writing it after when it reaches blockSize. On error the
// log is as it was.
func (l *rowLog) append(id PatchID, raw []byte) error {
	if l.f == nil {
		return errLogClosed
	}
	if id > maxLogID {
		return fmt.Errorf("core: patch id %d past the row log's %d", id, uint64(maxLogID))
	}
	delta := uint64(id - l.last)
	if l.count == 0 {
		delta = 0
	}
	n := uvarintLen(uint64(len(raw))) + uvarintLen(delta) + len(raw)
	if l.count > 0 && len(l.block)+n > blockSize {
		if err := l.writeTail(); err != nil {
			return err
		}
		delta = 0
	}
	if l.block == nil {
		l.block = make([]byte, blockHeader, blockSize)
	}
	mark, prev := len(l.block), l.last
	if l.count == 0 {
		l.first = id
	}
	l.block = binary.AppendUvarint(l.block, uint64(len(raw)))
	l.block = binary.AppendUvarint(l.block, delta)
	l.block = append(l.block, raw...)
	l.count++
	l.last = id
	if len(l.block) >= blockSize {
		if err := l.writeTail(); err != nil {
			l.block, l.last = l.block[:mark], prev
			l.count--
			return err
		}
	}
	return nil
}

// writeTail writes the tail as one block and empties it. A failed write
// is cut from the file, so the log never holds a torn block it wrote; if
// the cut fails too, the log is closed, since later blocks would land
// behind the torn one.
func (l *rowLog) writeTail() error {
	b := l.block
	binary.LittleEndian.PutUint32(b[4:], uint32(len(b)-blockHeader))
	binary.LittleEndian.PutUint16(b[8:], uint16(l.count))
	binary.LittleEndian.PutUint16(b[10:], uint16(l.first))
	binary.LittleEndian.PutUint32(b[12:], uint32(l.first>>16))
	binary.LittleEndian.PutUint32(b[0:], crc32.Checksum(b[4:], castagnoli))
	if _, err := l.f.Write(b); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.f.Close()
			l.f = nil
			return errors.Join(err, terr)
		}
		return err
	}
	l.size += int64(len(b))
	l.unsynced = true
	l.count = 0
	if cap(b) > blockSize {
		l.block = nil // an oversized row's buffer is not kept
	} else {
		l.block = b[:blockHeader]
	}
	return nil
}

// sync writes the tail, if it holds a row, and syncs the file, if it
// holds a write not yet synced.
func (l *rowLog) sync() error {
	if l.f == nil {
		return nil
	}
	if l.count > 0 {
		if err := l.writeTail(); err != nil {
			return err
		}
	}
	if !l.unsynced {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.unsynced = false
	return nil
}

// close syncs and closes the log; later appends fail with errLogClosed.
func (l *rowLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.block = nil, nil
	return err
}

// readRowLog reads a row log of size bytes from r and calls fn with each
// row's id and stored bytes, in log order; the bytes are valid only
// during the call. A block that is cut short, fails its checksum or
// frames its rows or ids inconsistently is errCorrupt, and fn sees none
// of its rows. An error fn returns stops the read and is returned.
func readRowLog(r io.Reader, size int64, fn func(id PatchID, row []byte) error) error {
	var hdr [blockHeader]byte
	var body []byte
	var ids []PatchID
	var rows [][]byte
	var last PatchID
	for size > 0 {
		if size < blockHeader {
			return errCorrupt
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		size -= blockHeader
		n := int64(binary.LittleEndian.Uint32(hdr[4:]))
		count := int(binary.LittleEndian.Uint16(hdr[8:]))
		first := PatchID(binary.LittleEndian.Uint16(hdr[10:])) | PatchID(binary.LittleEndian.Uint32(hdr[12:]))<<16
		if n > size || count == 0 || first <= last {
			return errCorrupt
		}
		size -= n
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return err
		}
		crc := crc32.Update(crc32.Checksum(hdr[4:], castagnoli), castagnoli, body)
		if crc != binary.LittleEndian.Uint32(hdr[:]) {
			return errCorrupt
		}
		// The checksum holds, so the rows are framed as they were
		// written; check the framing anyway before handing any row out.
		var err error
		if ids, rows, err = frameRows(body, first, count, ids[:0], rows[:0]); err != nil {
			return err
		}
		for i, row := range rows {
			if err := fn(ids[i], row); err != nil {
				return err
			}
		}
		last = ids[count-1]
	}
	return nil
}

// frameRows splits a block's body into its count rows and their ids,
// appending them to ids and rows.
func frameRows(body []byte, first PatchID, count int, ids []PatchID, rows [][]byte) ([]PatchID, [][]byte, error) {
	id := first
	for i := 0; i < count; i++ {
		l, k := binary.Uvarint(body)
		if k <= 0 {
			return nil, nil, errCorrupt
		}
		body = body[k:]
		d, k := binary.Uvarint(body)
		if k <= 0 || (i == 0) != (d == 0) || d > uint64(maxLogID-id) || l > uint64(len(body)-k) {
			return nil, nil, errCorrupt
		}
		id += PatchID(d)
		body = body[k:]
		ids, rows = append(ids, id), append(rows, body[:l])
		body = body[l:]
	}
	if len(body) != 0 {
		return nil, nil, errCorrupt
	}
	return ids, rows, nil
}
