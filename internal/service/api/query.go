package api

import (
	"encoding/json"
	"fmt"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// The stream endpoints take the request of their blocking twin as query
// parameters: GET /v1/solve/stream a SolveRequest, GET /v1/sweep/stream a
// SweepRequest. One codec serves both types on both sides of the wire. Each
// parameter is named by its field's JSON tag and carries the field's value
// as text: integers and floats in Go syntax, booleans in any form
// strconv.ParseBool reads, budgets as a comma-separated list, and graph as
// its JSON encoding. Zero fields are omitted, an empty value reads as zero,
// and a parameter no field is named by is an error, like an unknown field
// in a POST body.

// Query encodes r as GET /v1/solve/stream query parameters. It fails only
// when Graph cannot be encoded as JSON (a NaN or infinite cost).
func (r SolveRequest) Query() (url.Values, error) { return encodeQuery(reflect.ValueOf(r)) }

// ParseSolveQuery decodes GET /v1/solve/stream query parameters into the
// SolveRequest that POST /v1/solve reads from its body.
func ParseSolveQuery(q url.Values) (SolveRequest, error) {
	var r SolveRequest
	err := parseQuery(q, reflect.ValueOf(&r).Elem())
	return r, err
}

// Query encodes r as GET /v1/sweep/stream query parameters. It fails only
// when Graph cannot be encoded as JSON.
func (r SweepRequest) Query() (url.Values, error) { return encodeQuery(reflect.ValueOf(r)) }

// ParseSweepQuery decodes GET /v1/sweep/stream query parameters into the
// SweepRequest that POST /v1/sweep reads from its body.
func ParseSweepQuery(q url.Values) (SweepRequest, error) {
	var r SweepRequest
	err := parseQuery(q, reflect.ValueOf(&r).Elem())
	return r, err
}

// paramName is the query parameter of one request field: its JSON name.
func paramName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

func encodeQuery(v reflect.Value) (url.Values, error) {
	q := url.Values{}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() {
			continue
		}
		var s string
		switch f.Kind() {
		case reflect.String:
			s = f.String()
		case reflect.Int, reflect.Int64:
			s = strconv.FormatInt(f.Int(), 10)
		case reflect.Float64:
			s = strconv.FormatFloat(f.Float(), 'g', -1, 64)
		case reflect.Bool:
			s = "true"
		case reflect.Slice: // budgets
			parts := make([]string, f.Len())
			for j := range parts {
				parts[j] = strconv.FormatInt(f.Index(j).Int(), 10)
			}
			s = strings.Join(parts, ",")
		case reflect.Pointer: // graph
			b, err := json.Marshal(f.Interface())
			if err != nil {
				return nil, fmt.Errorf("parameter %s: %w", paramName(v.Type().Field(i)), err)
			}
			s = string(b)
		default:
			panic(fmt.Sprintf("api: no query encoding for %s", f.Type()))
		}
		if s != "" {
			q.Set(paramName(v.Type().Field(i)), s)
		}
	}
	return q, nil
}

// parseQuery fills the request struct v from q, reporting the first bad or
// unknown parameter in name order. A repeated parameter reads its first
// value, as url.Values.Get does.
func parseQuery(q url.Values, v reflect.Value) error {
	fields := make(map[string]reflect.Value, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		fields[paramName(v.Type().Field(i))] = v.Field(i)
	}
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, ok := fields[name]
		if !ok {
			return fmt.Errorf("unknown parameter %q", name)
		}
		if err := parseParam(f, q.Get(name)); err != nil {
			return fmt.Errorf("parameter %s: %v", name, err)
		}
	}
	return nil
}

func parseParam(f reflect.Value, s string) error {
	if s == "" {
		return nil
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString(s)
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(s, 10, f.Type().Bits())
		if err != nil {
			return err
		}
		f.SetInt(n)
	case reflect.Float64:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		f.SetFloat(x)
	case reflect.Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return err
		}
		f.SetBool(b)
	case reflect.Slice: // budgets: empty items are skipped
		for _, part := range strings.Split(s, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			n, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				return fmt.Errorf("%q: %v", part, err)
			}
			f.Set(reflect.Append(f, reflect.ValueOf(n)))
		}
	case reflect.Pointer: // graph
		p := reflect.New(f.Type().Elem())
		if err := json.Unmarshal([]byte(s), p.Interface()); err != nil {
			return err
		}
		f.Set(p)
	default:
		panic(fmt.Sprintf("api: no query decoding for %s", f.Type()))
	}
	return nil
}
