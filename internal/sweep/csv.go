package sweep

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// WriteCSV dumps every record.
func (r *Results) WriteCSV(w io.Writer) error {
	axes := make([]string, len(Axes))
	for i, a := range Axes {
		axes[i] = a.Name
	}
	if _, err := fmt.Fprintf(w, "config,cores,warps,threads,kernel,mapper,%s,lws,cycles,instrs,mem_stall,exec_stall,energy_pj,boundedness,err\n",
		strings.Join(axes, ",")); err != nil {
		return err
	}
	for _, rec := range r.Records {
		// Err is free-form (error strings): commas are tolerated because it
		// is the last column (ReadCSV rejoins it), but a newline would split
		// the row, so flatten it.
		errStr := strings.ReplaceAll(strings.ReplaceAll(rec.Err, "\r", " "), "\n", " ")
		_, err := fmt.Fprintf(w, "%s,%d,%d,%d,%s,%s,%s,%d,%d,%d,%d,%d,%.0f,%s,%s\n",
			rec.Config.Name(), rec.Config.Cores, rec.Config.Warps, rec.Config.Threads,
			rec.Kernel, rec.Mapper, strings.Join(rec.point(), ","), rec.LWS, rec.Cycles, rec.Instrs,
			rec.MemStall, rec.ExecStall, rec.EnergyPJ, rec.Boundedness, errStr)
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV parses records previously written by WriteCSV, so committed
// sweep results can be re-analyzed and re-plotted without re-simulating.
// It accepts both current files and older ones without the energy or
// grid-axis columns (records from the latter come back with zero-valued
// axis fields), and empty numeric cells; a cell that is present but does
// not parse is refused with its line number.
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
	for _, required := range []string{"config", "kernel", "mapper", "lws", "cycles"} {
		if _, ok := col[required]; !ok {
			return nil, fmt.Errorf("sweep: CSV missing column %q", required)
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
		if rec.Cycles, err = strconv.ParseUint(get("cycles"), 10, 64); err != nil {
			return nil, fmt.Errorf("sweep: line %d: cycles: %w", lineNo, err)
		}
		for _, c := range []struct {
			name string
			dst  *uint64
		}{{"instrs", &rec.Instrs}, {"mem_stall", &rec.MemStall}, {"exec_stall", &rec.ExecStall}} {
			if v := get(c.name); v != "" {
				if *c.dst, err = strconv.ParseUint(v, 10, 64); err != nil {
					return nil, fmt.Errorf("sweep: line %d: %s: %w", lineNo, c.name, err)
				}
			}
		}
		if v := get("energy_pj"); v != "" {
			if rec.EnergyPJ, err = strconv.ParseFloat(v, 64); err != nil {
				return nil, fmt.Errorf("sweep: line %d: energy_pj: %w", lineNo, err)
			}
		}
		// WriteCSV renders Boundedness as its String form; restore it so
		// the classification survives the round trip. Anything else in the
		// column is corruption — refuse it rather than silently regrouping
		// the record as compute-bound. Empty is allowed: older files lack
		// the column, and failed records never got classified.
		switch v := get("boundedness"); v {
		case core.MemoryBound.String():
			rec.Boundedness = core.MemoryBound
		case core.ComputeBound.String(), "":
		default:
			return nil, fmt.Errorf("sweep: line %d: unknown boundedness %q", lineNo, v)
		}
		res.Records = append(res.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
