package sweep

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
)

// WriteCSV dumps every record.
func (r *Results) WriteCSV(w io.Writer) error {
	header := []string{"config", "cores", "warps", "threads", "kernel", "mapper"}
	for _, a := range Axes {
		header = append(header, a.Name)
	}
	header = append(header, "lws")
	for _, c := range columns {
		header = append(header, c.name)
	}
	if _, err := io.WriteString(w, strings.Join(append(header, "err"), ",")+"\n"); err != nil {
		return err
	}
	var row []byte
	for _, rec := range r.Records {
		row = rec.Config.AppendName(row[:0])
		for _, n := range [...]int{rec.Config.Cores, rec.Config.Warps, rec.Config.Threads} {
			row = strconv.AppendInt(append(row, ','), int64(n), 10)
		}
		row = append(append(row, ','), rec.Kernel...)
		row = append(append(row, ','), rec.Mapper...)
		for _, a := range Axes {
			row = append(append(row, ','), a.get(rec)...)
		}
		row = strconv.AppendInt(append(row, ','), int64(rec.LWS), 10)
		for _, c := range columns {
			row = strconv.AppendUint(append(row, ','), c.get(rec), 10)
		}
		// Err is free-form (error strings): commas are tolerated because it
		// is the last column (ReadCSV rejoins it), but a newline would split
		// the row, so flatten it.
		errStr := strings.ReplaceAll(strings.ReplaceAll(rec.Err, "\r", " "), "\n", " ")
		row = append(append(append(row, ','), errStr...), '\n')
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV parses records previously written by WriteCSV, so committed
// sweep results can be re-analyzed and re-plotted without re-simulating.
// It accepts both current files and older ones: without the grid-axis
// columns (records come back with zero-valued axis fields), with empty
// cells in a column other than the required ones, or with the energy_pj
// and boundedness columns of the deleted energy estimate and boundedness
// label (ignored). A cell that is present but does not parse is refused
// with its line number and column.
func ReadCSV(r io.Reader) (*Results, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sweep: empty CSV")
	}
	header := strings.Split(strings.TrimSpace(sc.Text()), ",")
	col := map[string]int{}
	for i, name := range header {
		col[name] = i
	}
	required := []string{"config", "kernel", "mapper", "lws", "cycles"}
	for _, name := range required {
		if _, ok := col[name]; !ok {
			return nil, fmt.Errorf("sweep: CSV missing column %q", name)
		}
	}
	res := &Results{}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) < len(header) {
			return nil, fmt.Errorf("sweep: line %d has %d fields, want %d", lineNo, len(f), len(header))
		}
		get := func(name string) string {
			i, ok := col[name]
			if !ok {
				return ""
			}
			// The last column (err in files WriteCSV produces) is written
			// unescaped and may itself contain commas — error strings
			// often do — so it spans every remaining field.
			if i == len(header)-1 {
				return strings.Join(f[i:], ",")
			}
			return f[i]
		}
		hw, err := core.ParseName(get("config"))
		if err != nil {
			return nil, fmt.Errorf("sweep: line %d: %w", lineNo, err)
		}
		rec := Record{Config: hw, Kernel: get("kernel"), Mapper: get("mapper"), Err: get("err")}
		for _, a := range Axes {
			if v := get(a.Name); v != "" {
				if err := a.check([]string{v}); err != nil {
					return nil, fmt.Errorf("sweep: line %d: %w", lineNo, err)
				}
				rec = a.set(rec, v)
			}
		}
		if rec.LWS, err = strconv.Atoi(get("lws")); err != nil {
			return nil, fmt.Errorf("sweep: line %d: lws: %w", lineNo, err)
		}
		for _, c := range columns {
			v := get(c.name)
			if v == "" && !slices.Contains(required, c.name) {
				continue
			}
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sweep: line %d: %s: %w", lineNo, c.name, err)
			}
			rec = c.set(rec, n)
		}
		res.Records = append(res.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
