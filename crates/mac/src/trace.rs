//! Execution traces (Figure 13).
//!
//! The paper illustrates a BEB run with 20 stations as per-station timelines:
//! thick lines for transmissions, thin lines for ACK-timeout waits. We record
//! the same spans and render them as ASCII art.

use contention_core::time::Nanos;

/// What a span on a station's timeline represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Data frame on air that was acknowledged.
    DataOk,
    /// Data frame on air that collided (or lost its ACK).
    DataFail,
    /// RTS frame on air.
    Rts,
    /// CTS addressed to this station.
    Cts,
    /// ACK addressed to this station.
    Ack,
    /// Waiting out an ACK (or CTS) timeout.
    TimeoutWait,
    /// BEST-OF-k dummy probe.
    Probe,
}

impl SpanKind {
    /// Glyph used by the ASCII rendering.
    fn glyph(self) -> char {
        match self {
            SpanKind::DataOk => '█',
            SpanKind::DataFail => '▓',
            SpanKind::Rts => 'r',
            SpanKind::Cts => 'c',
            SpanKind::Ack => 'a',
            SpanKind::TimeoutWait => '-',
            SpanKind::Probe => '.',
        }
    }
}

/// One interval on one station's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub station: u32,
    pub kind: SpanKind,
    pub start: Nanos,
    pub end: Nanos,
}

/// A full execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub n: u32,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(n: u32) -> Trace {
        Trace {
            n,
            spans: Vec::new(),
        }
    }

    pub fn push(&mut self, span: Span) {
        debug_assert!(span.end >= span.start, "inverted span");
        self.spans.push(span);
    }

    /// End of the last span (the trace's horizon).
    pub fn horizon(&self) -> Nanos {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Spans belonging to one station, in time order.
    pub fn station_spans(&self, station: u32) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .spans
            .iter()
            .copied()
            .filter(|s| s.station == station)
            .collect();
        spans.sort_by_key(|s| s.start);
        spans
    }

    /// Verifies that no station has two overlapping spans — a station cannot
    /// transmit and wait simultaneously. Returns the first violation.
    pub fn first_overlap(&self) -> Option<(Span, Span)> {
        for station in 0..self.n {
            let spans = self.station_spans(station);
            for pair in spans.windows(2) {
                if pair[1].start < pair[0].end {
                    return Some((pair[0], pair[1]));
                }
            }
        }
        None
    }

    /// Figure 13-style ASCII rendering: one row per station, `width`
    /// characters across the time axis. Later spans overwrite earlier ones
    /// within a cell; sub-cell spans still paint one glyph.
    pub fn render_ascii(&self, width: usize) -> String {
        assert!(width >= 10, "width too small to render");
        let horizon = self.horizon();
        if horizon == Nanos::ZERO {
            return String::new();
        }
        let scale = horizon.as_nanos() as f64 / width as f64;
        let mut out = String::new();
        for station in 0..self.n {
            let mut row = vec![' '; width];
            for span in self.station_spans(station) {
                let a = (span.start.as_nanos() as f64 / scale) as usize;
                let b = ((span.end.as_nanos() as f64 / scale) as usize).min(width - 1);
                for cell in row.iter_mut().take(b + 1).skip(a.min(width - 1)) {
                    *cell = span.kind.glyph();
                }
            }
            out.push_str(&format!("{station:>4} |"));
            out.extend(row);
            out.push('\n');
        }
        out.push_str(&format!(
            "      0 {:>width$}\n",
            format!("{:.0}µs", horizon.as_micros_f64()),
            width = width - 2
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> Nanos {
        Nanos::from_micros(x)
    }

    #[test]
    fn horizon_and_station_filtering() {
        let mut t = Trace::new(2);
        t.push(Span {
            station: 0,
            kind: SpanKind::DataOk,
            start: us(0),
            end: us(10),
        });
        t.push(Span {
            station: 1,
            kind: SpanKind::DataFail,
            start: us(5),
            end: us(15),
        });
        t.push(Span {
            station: 0,
            kind: SpanKind::Ack,
            start: us(20),
            end: us(25),
        });
        assert_eq!(t.horizon(), us(25));
        assert_eq!(t.station_spans(0).len(), 2);
        assert_eq!(t.station_spans(1).len(), 1);
    }

    #[test]
    fn overlap_detection() {
        let mut t = Trace::new(1);
        t.push(Span {
            station: 0,
            kind: SpanKind::DataOk,
            start: us(0),
            end: us(10),
        });
        t.push(Span {
            station: 0,
            kind: SpanKind::Ack,
            start: us(10),
            end: us(12),
        });
        assert!(t.first_overlap().is_none(), "touching spans are fine");
        t.push(Span {
            station: 0,
            kind: SpanKind::Probe,
            start: us(11),
            end: us(13),
        });
        assert!(t.first_overlap().is_some());
    }

    #[test]
    fn ascii_render_shape() {
        let mut t = Trace::new(2);
        t.push(Span {
            station: 0,
            kind: SpanKind::DataOk,
            start: us(0),
            end: us(50),
        });
        t.push(Span {
            station: 1,
            kind: SpanKind::TimeoutWait,
            start: us(50),
            end: us(100),
        });
        let art = t.render_ascii(40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // two stations + axis
        assert!(lines[0].contains('█'));
        assert!(lines[1].contains('-'));
        assert!(lines[2].contains("100µs"));
    }

    #[test]
    fn empty_trace_renders_empty() {
        let t = Trace::new(3);
        assert_eq!(t.render_ascii(40), "");
    }
}
