package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// series maps each sample line of a Prometheus text exposition, keyed
// by its full series name (labels included), to its value.
type series map[string]float64

func parseProm(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after series, name string) float64 {
	return after[name] - before[name]
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
