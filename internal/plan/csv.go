package plan

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/value"
)

// CSVReader streams the data rows of a CSV file for LOAD CSV, one row
// per Next call — the file is never buffered in memory. file:// URLs
// and plain paths are accepted; fieldTerm overrides the comma
// separator. With headers, the header row is consumed on open and each
// data row binds as a header-keyed map (short rows pad with null, the
// empty field reads as null per the paper's Example 5 convention);
// without, each row binds as a list of strings.
type CSVReader struct {
	f           *os.File
	r           *csv.Reader
	headers     []string
	withHeaders bool
}

// OpenCSV opens a CSV file for streaming row binds.
func OpenCSV(url, fieldTerm string, withHeaders bool) (*CSVReader, error) {
	path := strings.TrimPrefix(url, "file://")
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("LOAD CSV: %w", err)
	}
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	if fieldTerm != "" {
		runes := []rune(fieldTerm)
		if len(runes) != 1 {
			f.Close()
			return nil, fmt.Errorf("FIELDTERMINATOR must be a single character")
		}
		r.Comma = runes[0]
	}
	cr := &CSVReader{f: f, r: r, withHeaders: withHeaders}
	if withHeaders {
		rec, err := r.Read()
		if err == io.EOF {
			return cr, nil // empty file: no headers, no rows
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("LOAD CSV: %w", err)
		}
		cr.headers = rec
	}
	return cr, nil
}

// Next returns the bound value of the next data row; ok=false means the
// file is exhausted.
func (c *CSVReader) Next() (v value.Value, ok bool, err error) {
	rec, err := c.r.Read()
	if err == io.EOF {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("LOAD CSV: %w", err)
	}
	return c.bind(rec), true, nil
}

func (c *CSVReader) bind(rec []string) value.Value {
	if c.withHeaders {
		m := make(value.Map, len(c.headers))
		for j, h := range c.headers {
			if j < len(rec) {
				m[h] = CSVField(rec[j])
			} else {
				m[h] = value.NullValue
			}
		}
		return m
	}
	lst := make(value.List, len(rec))
	for j, f := range rec {
		lst[j] = value.String(f)
	}
	return lst
}

// Close releases the underlying file. Idempotent.
func (c *CSVReader) Close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// CSVField maps the empty CSV field to null, matching the relational
// import convention the paper's Example 5 relies on.
func CSVField(s string) value.Value {
	if s == "" {
		return value.NullValue
	}
	return value.String(s)
}
