//! Output checks: every response the daemon returns is compared with a
//! reference computed without it.

use crate::layers::Expected;
use gem5prof::report::Table;
use gem5prof_served::minjson::{self, Json};

/// Golden quick-fidelity renders, read from the checkout.
pub fn golden(figure: usize) -> Result<String, String> {
    let path = format!("tests/golden/fig{figure:02}.txt");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn parse(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    minjson::parse(text).map_err(|e| format!("malformed JSON: {e}"))
}

fn strings(j: Option<&Json>, what: &str) -> Result<Vec<String>, String> {
    j.and_then(Json::as_arr)
        .ok_or_else(|| format!("missing `{what}`"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(String::from)
                .ok_or_else(|| format!("non-string in `{what}`"))
        })
        .collect()
}

/// Rebuilds a figure body as a [`Table`] and renders it; it must equal
/// the golden render byte for byte.
pub fn figure(body: &[u8], golden: &str) -> Result<(), String> {
    let doc = parse(body)?;
    let title = doc
        .get("title")
        .and_then(Json::as_str)
        .ok_or("missing `title`")?;
    let mut t = Table::new(title, strings(doc.get("columns"), "columns")?);
    for row in doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing `rows`")?
    {
        let label = row
            .get("label")
            .and_then(Json::as_str)
            .ok_or("row without label")?;
        let values = row
            .get("values")
            .and_then(Json::as_arr)
            .ok_or("row without values")?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| format!("non-number in row {label}"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        if values.len() != t.columns.len() {
            return Err(format!("row {label} has {} values", values.len()));
        }
        t.push(label, values);
    }
    for n in strings(doc.get("notes"), "notes")? {
        t.note(n);
    }
    let rendered = t.to_string();
    if rendered == golden {
        Ok(())
    } else {
        Err(format!("`{title}` does not render to its golden file"))
    }
}

/// Checks an experiment response against the bare run of its guest and
/// returns its committed instruction count.
pub fn experiment(body: &[u8], key: &str, want: &Expected) -> Result<u64, String> {
    let doc = parse(body)?;
    if doc.get("key").and_then(Json::as_str) != Some(key) {
        return Err(format!("response is not for {key}"));
    }
    let guest = doc.get("guest").ok_or("missing `guest`")?;
    let num = |f: &str| guest.get(f).and_then(Json::as_u64);
    let checksums = strings(guest.get("checksums"), "guest.checksums")?
        .iter()
        .map(|c| u64::from_str_radix(c.trim_start_matches("0x"), 16).ok())
        .collect::<Option<Vec<u64>>>()
        .ok_or("bad checksum")?;
    let got = Expected {
        committed_insts: num("committed_insts").ok_or("missing committed_insts")?,
        sim_ticks: num("sim_ticks").ok_or("missing sim_ticks")?,
        checksums,
    };
    if &got == want {
        Ok(got.committed_insts)
    } else {
        Err(format!("{key}: got {got:?}, bare run gives {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_figure_body_round_trips_to_its_render() {
        let mut t = Table::new("Fig. X: demo", vec!["a".into(), "b".into()]);
        t.push("ROW_1", vec![1.0 / 3.0, 1234.5]);
        t.note("paper: 42%");
        let body = r#"{"title":"Fig. X: demo","columns":["a","b"],"rows":[{"label":"ROW_1","values":[0.3333333333333333,1234.5]}],"notes":["paper: 42%"]}"#;
        assert_eq!(figure(body.as_bytes(), &t.to_string()), Ok(()));
        assert!(figure(body.as_bytes(), "== other ==\n").is_err());
    }

    #[test]
    fn experiment_responses_must_match_the_bare_run() {
        let want = Expected {
            committed_insts: 12401,
            sim_ticks: 3862246,
            checksums: vec![0],
        };
        let body = br#"{"key":"k","guest":{"sim_ticks":3862246,"committed_insts":12401,"checksums":["0x0000000000000000"]}}"#;
        assert_eq!(experiment(body, "k", &want), Ok(12401));
        assert!(experiment(body, "other", &want).is_err());
        let off = Expected {
            sim_ticks: 1,
            ..want
        };
        assert!(experiment(body, "k", &off).is_err());
    }
}
