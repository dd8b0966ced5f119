package truthdiscovery

import (
	"encoding/csv"
	"fmt"
	"io"
)

// LoadClaimsCSV builds a dataset from CSV rows of the form
//
//	source, object, attribute, kind, value
//
// (the format cmd/datagen emits), where kind is "number", "time" or "text".
// A leading header row is skipped. Values are parsed per their kind, the
// snapshot indexed, and Eq.-3 tolerances computed.
func LoadClaimsCSV(r io.Reader) (*Dataset, *Snapshot, error) {
	cr := csv.NewReader(r)
	b := NewBuilder("csv")
	sources := map[string]SourceID{}
	objects := map[string]ObjectID{}
	attrs := map[string]AttrID{}
	kinds := map[string]ValueKind{"number": Number, "time": Time, "text": Text}

	first := true
	line := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		line++
		if len(row) != 5 {
			return nil, nil, fmt.Errorf("truthdiscovery: line %d: want 5 columns, got %d", line, len(row))
		}
		if first && row[0] == "source" {
			first = false
			continue
		}
		first = false
		src, obj, attr, kindName, raw := row[0], row[1], row[2], row[3], row[4]
		kind, ok := kinds[kindName]
		if !ok {
			return nil, nil, fmt.Errorf("truthdiscovery: line %d: unknown kind %q", line, kindName)
		}
		if _, ok := sources[src]; !ok {
			sources[src] = b.Source(src)
		}
		if _, ok := objects[obj]; !ok {
			objects[obj] = b.Object(obj)
		}
		if _, ok := attrs[attr]; !ok {
			attrs[attr] = b.Attribute(attr, kind)
		}
		if err := b.Claim(sources[src], objects[obj], attrs[attr], raw); err != nil {
			return nil, nil, fmt.Errorf("truthdiscovery: line %d: %w", line, err)
		}
	}
	return b.Build()
}

// WriteClaimsCSV writes a snapshot's claims in the LoadClaimsCSV format.
func WriteClaimsCSV(w io.Writer, ds *Dataset, snap *Snapshot) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"source", "object", "attribute", "kind", "value"}); err != nil {
		return err
	}
	for _, c := range snap.Claims {
		it := ds.Items[c.Item]
		err := cw.Write([]string{
			ds.Sources[c.Source].Name,
			ds.Objects[it.Object].Key,
			ds.Attrs[it.Attr].Name,
			ds.Attrs[it.Attr].Kind.String(),
			c.Val.String(),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
