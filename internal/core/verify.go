package core

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/gformat"
)

// CheckPart validates that the part file at path is a structurally
// complete artifact of its format. It exists because resume logic
// treats a part file's *presence* as proof of completeness — which the
// atomic sinks guarantee under ordered rename, but a kill -9 on a
// filesystem without that ordering (or any external corruption) can
// leave a truncated file under its final name. The checks are
// format-shaped:
//
//   - TSV: every line parses as "src<TAB>dst" and the file ends in a
//     newline (a torn write ends in a partial line, which may still
//     parse when the cut falls inside the last number).
//   - ADJ6: every record's declared adjacency count is satisfied by the
//     bytes that follow (truncation surfaces as a short record).
//   - CSR6: header magic, size arithmetic and final offset agree
//     (O(1) — the structure itself is the footer).
//
// An empty TSV/ADJ6 file is valid (a range of only zero-degree
// vertices writes nothing).
func CheckPart(path string, format gformat.Format) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case gformat.TSV:
		if err := checkFinalNewline(f); err != nil {
			return fmt.Errorf("core: part %s: %w", path, err)
		}
		r := gformat.NewTSVReader(f)
		for {
			if _, err := r.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return fmt.Errorf("core: part %s: %w", path, err)
			}
		}
	case gformat.ADJ6:
		r := gformat.NewADJ6Reader(f)
		for {
			if _, _, err := r.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return fmt.Errorf("core: part %s: %w", path, err)
			}
		}
	case gformat.CSR6:
		if err := gformat.CheckCSR6(f); err != nil {
			return fmt.Errorf("core: part %s: %w", path, err)
		}
		return nil
	default:
		return fmt.Errorf("core: unsupported format %v", format)
	}
}

// checkFinalNewline reports a non-empty file whose last byte is not the
// newline every TSV line ends with.
func checkFinalNewline(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], fi.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		return errors.New("truncated: last line has no newline")
	}
	return nil
}
