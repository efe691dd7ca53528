//! Client XQuery texts. Plain strings only: what a client would send.
//!
//! Each shape mirrors an XBind query of `mars-workloads` (`client_query()` /
//! `query_suite()`); the drift guard in `pipeline.rs` keeps the two in step.
//! Every template returns text values only and puts one element per binding
//! directly under the result root, so the published document is a flat list
//! whose children can be compared as a set.

/// The navigation a template performs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Section 4.1 star: the hub joined with the given corners (1-based),
    /// returning `K` and each corner's `B`.
    Star(Vec<usize>),
    /// Three-link chain of the routing scenarios, returning `K1` and `B`.
    Chain,
    /// `xmark::query_suite()[n - 1]`, n in 1..=4.
    Xmark(usize),
    /// The Example 1.1 client query: diagnosis and drug price.
    Example11,
}

/// An extra `where` conjunct carrying the request's constant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Filter {
    None,
    /// `$var = "value"`
    Eq(&'static str, String),
    /// `$var != "value"`
    Neq(&'static str, String),
}

/// Every subset of `1..=nc` with at least two corners, by size then
/// lexicographically: 57 templates at NC = 6.
pub fn star_subsets(nc: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = (1u32..1 << nc)
        .filter(|mask| mask.count_ones() >= 2)
        .map(|mask| (1..=nc).filter(|i| mask & (1 << (i - 1)) != 0).collect())
        .collect();
    out.sort_by(|a: &Vec<usize>, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    out
}

/// The variable a key lookup on this shape constrains.
pub fn key_variable(shape: &Shape) -> &'static str {
    match shape {
        Shape::Star(_) => "k",
        Shape::Chain => "k1",
        Shape::Example11 => "diag",
        Shape::Xmark(_) => panic!("the XMark queries take no key"),
    }
}

/// The variable an exclusion constrains: corner 1's payload, which every
/// star template that takes an exclusion joins.
pub const EXCLUSION_VARIABLE: &str = "b1";

/// Render the XQuery text of `shape` with `filter` appended to its `where`.
pub fn render(shape: &Shape, filter: &Filter) -> String {
    let (bindings, mut conditions, ret): (Vec<String>, Vec<String>, String) = match shape {
        Shape::Star(corners) => {
            let mut bindings = vec!["$r in //R".to_string(), "$k in $r/K/text()".to_string()];
            let mut conditions = Vec::new();
            let mut ret = String::from("<row><k>$k</k>");
            for i in corners {
                bindings.push(format!("$a{i} in $r/A{i}/text()"));
                bindings.push(format!("$s{i} in //S{i}"));
                bindings.push(format!("$sa{i} in $s{i}/A/text()"));
                bindings.push(format!("$b{i} in $s{i}/B/text()"));
                conditions.push(format!("$a{i} = $sa{i}"));
                ret.push_str(&format!("<b{i}>$b{i}</b{i}>"));
            }
            ret.push_str("</row>");
            (bindings, conditions, ret)
        }
        Shape::Chain => (
            [
                "$l1 in //L1",
                "$k1 in $l1/K/text()",
                "$l2 in //L2",
                "$k2 in $l2/K/text()",
                "$l3 in //L3",
                "$k3 in $l3/K/text()",
                "$p1 in $l1/P/text()",
                "$p2 in $l2/P/text()",
                "$b in $l3/B/text()",
            ]
            .map(String::from)
            .to_vec(),
            vec!["$p1 = $k2".to_string(), "$p2 = $k3".to_string()],
            "<row><k>$k1</k><b>$b</b></row>".to_string(),
        ),
        Shape::Xmark(1) => (
            vec!["$p in //person".to_string(), "$n in $p/name/text()".to_string()],
            Vec::new(),
            "<person>$n</person>".to_string(),
        ),
        Shape::Xmark(2) => (
            [
                "$p in //person",
                "$pid in $p/@id",
                "$n in $p/name/text()",
                "$a in //open_auction",
                "$s in $a/seller/text()",
                "$cur in $a/current/text()",
            ]
            .map(String::from)
            .to_vec(),
            vec!["$pid = $s".to_string()],
            "<seller><name>$n</name><current>$cur</current></seller>".to_string(),
        ),
        Shape::Xmark(3) => (
            [
                "$a in //open_auction",
                "$ir in $a/itemref/text()",
                "$i in //item",
                "$iid in $i/@id",
                "$iname in $i/name/text()",
                "$cat in $i/category/text()",
            ]
            .map(String::from)
            .to_vec(),
            vec!["$ir = $iid".to_string()],
            "<auctioned><item>$iname</item><category>$cat</category></auctioned>".to_string(),
        ),
        Shape::Xmark(4) => (
            vec!["$iname in //item/name/text()".to_string()],
            Vec::new(),
            "<item>$iname</item>".to_string(),
        ),
        Shape::Xmark(n) => panic!("the XMark suite has queries 1..=4, not {n}"),
        Shape::Example11 => (
            [
                "$c in document(\"case.xml\")//case",
                "$diag in $c/diagnosis/text()",
                "$drug in $c/drug/text()",
                "$d in document(\"catalog.xml\")//drug",
                "$drug2 in $d/name/text()",
                "$price in $d/price/text()",
            ]
            .map(String::from)
            .to_vec(),
            vec!["$drug = $drug2".to_string()],
            "<assoc><diagnosis>$diag</diagnosis><price>$price</price></assoc>".to_string(),
        ),
    };
    match filter {
        Filter::None => {}
        Filter::Eq(var, value) => conditions.push(format!("${var} = \"{value}\"")),
        Filter::Neq(var, value) => conditions.push(format!("${var} != \"{value}\"")),
    }
    let mut text = format!("for {}", bindings.join(", "));
    if !conditions.is_empty() {
        text.push_str(&format!(" where {}", conditions.join(" and ")));
    }
    text.push_str(&format!(" return {ret}"));
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_57_star_subsets_at_nc_6() {
        let subsets = star_subsets(6);
        assert_eq!(subsets.len(), 57);
        assert_eq!(subsets[0], vec![1, 2]);
        assert_eq!(subsets[56], vec![1, 2, 3, 4, 5, 6]);
        assert!(subsets.windows(2).all(|w| w[0].len() <= w[1].len()));
    }

    #[test]
    fn filters_extend_the_where_clause() {
        let plain = render(&Shape::Star(vec![1, 2]), &Filter::None);
        assert!(plain.starts_with("for $r in //R, $k in $r/K/text(), $a1 in $r/A1/text()"));
        assert!(
            plain.contains(" where $a1 = $sa1 and $a2 = $sa2 return <row><k>$k</k><b1>$b1</b1>")
        );
        let keyed = render(&Shape::Star(vec![1, 2]), &Filter::Eq("k", "k7".to_string()));
        assert!(keyed.contains("and $k = \"k7\" return"));
        let scan = render(&Shape::Xmark(1), &Filter::Neq("n", "Name3".to_string()));
        assert!(scan.contains(" where $n != \"Name3\" return <person>$n</person>"));
    }
}
