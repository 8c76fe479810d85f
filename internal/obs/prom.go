package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), dependency-free. The
// registry's dotted names become `graphite_`-prefixed underscore families:
// engine.supersteps → graphite_engine_supersteps. Counters additionally get
// the conventional `_total` suffix; histograms render as the cumulative
// `_bucket{le="…"}` / `_sum` / `_count` triplet with `le` in nanoseconds
// (our duration families are explicitly `_ns`-suffixed, so the unit is in
// the name, as the convention asks).
//
// Labels ride inside registry names: WithLabels("cluster.shard_compute_ns",
// "shard", "2") returns `cluster.shard_compute_ns{shard=2}`, and because
// registry lookups get-or-create by full name, a labeled series is just
// another registry entry — no registry API change, and series of one family
// aggregate naturally in the exposition. Label values are stored raw and
// escaped (backslash, quote, newline) at render time; `,` and `=` inside
// values are not supported by this encoding.

// ContentTypeMetrics is the Content-Type of the /metrics response.
const ContentTypeMetrics = "text/plain; version=0.0.4; charset=utf-8"

// WithLabels returns the registry metric name for one labeled series of a
// family: the family name with a `{k1=v1,k2=v2}` suffix. kv alternates
// key, value; keys should be valid Prometheus label names.
func WithLabels(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabels splits a registry name into its family and raw label block
// ("" when unlabeled).
func splitLabels(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// PromName is the exposition name of a registry family of the given kind
// ("counter", "gauge" or "histogram"): graphite_ prefix, dots and every
// other invalid character to underscores, and the conventional _total
// suffix on a counter that lacks it.
func PromName(family, kind string) string {
	var b strings.Builder
	b.WriteString("graphite_")
	for i := 0; i < len(family); i++ {
		c := family[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if kind == "counter" && !strings.HasSuffix(b.String(), "_total") {
		b.WriteString("_total")
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// promLabels renders a raw label block (`k1=v1,k2=v2`) as the exposition
// form (`{k1="v1",k2="v2"}`), with extra prepended verbatim (used for the
// histogram `le` label). Returns "" for an empty block with no extra.
func promLabels(raw, extra string) string {
	var parts []string
	if extra != "" {
		parts = append(parts, extra)
	}
	if raw != "" {
		for _, pair := range strings.Split(raw, ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				k, v = pair, ""
			}
			// Quote by hand: %q would re-escape what escapeLabelValue already
			// handled and invent \x escapes the exposition format lacks.
			parts = append(parts, k+`="`+escapeLabelValue(v)+`"`)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// series is one (labels, value) pair of a family; family groups them.
type series struct {
	labels string // raw label block
	value  int64
	hist   *Histogram
}

type family struct {
	name   string // registry family name (dotted, no labels)
	kind   string // "counter" | "gauge" | "histogram"
	series []series
}

// WritePrometheus renders every metric of the registry in Prometheus text
// exposition format: families sorted by name, one HELP and TYPE line each,
// series sorted by label block. A nil registry renders nothing.
func WritePrometheus(w io.Writer, reg *Registry) {
	if reg == nil {
		return
	}
	ex := reg.Export()
	fams := map[string]*family{}
	collect := func(name, kind string, s series) {
		fam, labels := splitLabels(name)
		s.labels = labels
		key := kind + "\x00" + fam
		f := fams[key]
		if f == nil {
			f = &family{name: fam, kind: kind}
			fams[key] = f
		}
		f.series = append(f.series, s)
	}
	for n, v := range ex.Counters {
		collect(n, "counter", series{value: v})
	}
	for n, v := range ex.Gauges {
		collect(n, "gauge", series{value: v})
	}
	for n, h := range ex.Histograms {
		collect(n, "histogram", series{hist: h})
	}
	ordered := make([]*family, 0, len(fams))
	for _, f := range fams {
		sort.Slice(f.series, func(a, b int) bool { return f.series[a].labels < f.series[b].labels })
		ordered = append(ordered, f)
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].name != ordered[b].name {
			return ordered[a].name < ordered[b].name
		}
		return ordered[a].kind < ordered[b].kind
	})
	for _, f := range ordered {
		pn := PromName(f.name, f.kind)
		fmt.Fprintf(w, "# HELP %s Registry metric %s.\n", pn, f.name)
		fmt.Fprintf(w, "# TYPE %s %s\n", pn, f.kind)
		for _, s := range f.series {
			if f.kind != "histogram" {
				fmt.Fprintf(w, "%s%s %d\n", pn, promLabels(s.labels, ""), s.value)
				continue
			}
			for _, b := range s.hist.Cumulative() {
				le := "+Inf"
				if b.UpperBound != BucketInf {
					le = fmt.Sprintf("%d", int64(b.UpperBound))
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", pn, promLabels(s.labels, `le="`+le+`"`), b.Count)
			}
			fmt.Fprintf(w, "%s_sum%s %d\n", pn, promLabels(s.labels, ""), int64(s.hist.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", pn, promLabels(s.labels, ""), s.hist.Count())
		}
	}
}

// MetricsHandler serves the registry as a Prometheus scrape target. Mounted
// at /metrics by every daemon.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		WritePrometheus(&buf, reg)
		w.Header().Set("Content-Type", ContentTypeMetrics)
		_, _ = w.Write(buf.Bytes())
	})
}
