//! The Introduction's motivating deployment: a financial information
//! provider pushes historical stock prices to proxy servers run by partner
//! ISPs. Users run pricing models against the proxies and must be able to
//! check that no trading day was omitted and no price tampered with.
//!
//! Demonstrates: bulk publishing, range scans over a date key, a pk-fk join
//! (prices ⋈ listings), an update batch (owner re-signs locally), and a
//! compromised proxy being caught.
//!
//! Run with: `cargo run --release --example stock_publisher`

use adp::core::join::{answer_pkfk_join, verify_pkfk_join};
use adp::core::prelude::*;
use adp::relation::{
    check_referential_integrity, Column, KeyRange, Projection, Record, Schema, SelectQuery, Table,
    Value, ValueType,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trading days encoded as days-since-2000 (the sort key).
fn prices_table(rng: &mut StdRng) -> Table {
    let schema = Schema::new(
        vec![
            Column::new("day", ValueType::Int),
            Column::new("ticker_id", ValueType::Int),
            Column::new("close_cents", ValueType::Int),
            Column::new("volume", ValueType::Int),
        ],
        "day",
    );
    let mut t = Table::new("prices", schema);
    let mut price = 15_000i64;
    for day in 0..750i64 {
        // ~3 years of trading days; a few tickers share each day (replica
        // numbers disambiguate).
        for ticker in 0..3i64 {
            price += rng.gen_range(-300..320);
            t.insert(Record::new(vec![
                Value::Int(day),
                Value::Int(ticker + 1),
                Value::Int(price.max(100)),
                Value::Int(rng.gen_range(10_000..5_000_000)),
            ]))
            .unwrap();
        }
    }
    t
}

/// Prices keyed by ticker id (for the join), and the listing master table.
fn tables_for_join(rng: &mut StdRng) -> (Table, Table) {
    let price_schema = Schema::new(
        vec![
            Column::new("ticker_id", ValueType::Int),
            Column::new("day", ValueType::Int),
            Column::new("close_cents", ValueType::Int),
        ],
        "ticker_id",
    );
    let mut by_ticker = Table::new("prices_by_ticker", price_schema);
    for ticker in 1..=5i64 {
        for day in 0..20i64 {
            by_ticker
                .insert(Record::new(vec![
                    Value::Int(ticker),
                    Value::Int(day),
                    Value::Int(rng.gen_range(1_000..90_000)),
                ]))
                .unwrap();
        }
    }
    let listing_schema = Schema::new(
        vec![
            Column::new("ticker_id", ValueType::Int),
            Column::new("symbol", ValueType::Text),
            Column::new("exchange", ValueType::Text),
        ],
        "ticker_id",
    );
    let mut listings = Table::new("listings", listing_schema);
    for (id, sym, ex) in [
        (1i64, "AAAA", "NYSE"),
        (2, "BBBB", "NASDAQ"),
        (3, "CCCC", "NYSE"),
        (4, "DDDD", "LSE"),
        (5, "EEEE", "SGX"),
    ] {
        listings
            .insert(Record::new(vec![
                Value::Int(id),
                Value::from(sym),
                Value::from(ex),
            ]))
            .unwrap();
    }
    (by_ticker, listings)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0x57_0C_C5);
    let mut owner_rng = StdRng::seed_from_u64(0x0117);
    let owner = Owner::new(1024, &mut owner_rng);

    // ----- Publish the price history ------------------------------------
    let prices = prices_table(&mut rng);
    let n = prices.len();
    let (mut signed, elapsed) = {
        let start = std::time::Instant::now();
        let st = owner
            .sign_table(prices, Domain::new(-2, 100_000), SchemeConfig::default())
            .unwrap();
        (st, start.elapsed())
    };
    let cert = owner.certificate(&signed);
    println!(
        "owner: signed {n} price rows in {:.2}s ({} signatures, {} KiB shipped)",
        elapsed.as_secs_f64(),
        n + 2,
        signed.dissemination_size() / 1024
    );

    // ----- A quarter's window query at the proxy ------------------------
    let q = SelectQuery::range(KeyRange::closed(180, 270)).project(&["day", "close_cents"]);
    let publisher = Publisher::new(&signed);
    let (rows, vo) = publisher.answer_select(&q).unwrap();
    let report = verify_select(&cert, &q, &rows, &vo).unwrap();
    println!(
        "\nproxy: Q2 window (days 180-270) → {} rows; user verified complete ({} sigs)",
        report.matched, report.signatures_verified
    );

    // ----- The owner appends a new trading day --------------------------
    let new_day = 750i64;
    let appended = (0..3i64)
        .map(|ticker| {
            Mutation::Insert(Record::new(vec![
                Value::Int(new_day),
                Value::Int(ticker + 1),
                Value::Int(20_000 + ticker),
                Value::Int(123_456),
            ]))
        })
        .collect();
    let report = owner.apply_batch(&mut signed, appended).unwrap();
    // The three rows are adjacent, so they share their neighbours.
    println!(
        "\nowner: appended day {new_day} (3 rows, {} re-signs for the batch — no root bottleneck)",
        report.signatures_recomputed
    );
    let publisher = Publisher::new(&signed);
    let q_latest = SelectQuery::range(KeyRange::at_least(new_day));
    let (rows, vo) = publisher.answer_select(&q_latest).unwrap();
    verify_select(&cert, &q_latest, &rows, &vo).unwrap();
    println!("proxy: latest-day query verified ({} rows)", rows.len());

    // ----- Join: prices ⋈ listings --------------------------------------
    let (by_ticker, listings) = tables_for_join(&mut rng);
    check_referential_integrity(&by_ticker, &listings).unwrap();
    let pt = owner
        .sign_table(by_ticker, Domain::new(-2, 1_000), SchemeConfig::default())
        .unwrap();
    let lt = owner
        .sign_table(listings, Domain::new(-2, 1_000), SchemeConfig::default())
        .unwrap();
    let (jr, jvo) = answer_pkfk_join(
        &Publisher::new(&pt),
        &Publisher::new(&lt),
        KeyRange::closed(2, 4),
        &Projection::All,
        &Projection::Columns(vec!["symbol".into()]),
    )
    .unwrap();
    let jreport = verify_pkfk_join(
        &owner.certificate(&pt),
        &owner.certificate(&lt),
        KeyRange::closed(2, 4),
        &Projection::All,
        &Projection::Columns(vec!["symbol".into()]),
        &jr,
        &jvo,
    )
    .unwrap();
    println!(
        "\njoin: σ(ticker 2..4)(prices) ⋈ listings → {} price rows × {} listings, verified",
        jreport.pairs, jreport.inner_verified
    );

    // ----- A compromised proxy -------------------------------------------
    // The adversary rewrites one closing price (insider shenanigans).
    let q_probe = SelectQuery::range(KeyRange::closed(100, 105));
    let (mut tampered, tvo) = Publisher::new(&signed).answer_select(&q_probe).unwrap();
    let mut vals = tampered[0].values().to_vec();
    vals[2] = Value::Int(1); // the market did not crash
    tampered[0] = Record::new(vals);
    let verdict = verify_select(&cert, &q_probe, &tampered, &tvo);
    println!(
        "\ncompromised proxy rewrites a close price → {:?}",
        verdict.unwrap_err()
    );

    // …and another one silently withholds a whole day.
    let (mut withheld, wvo) = Publisher::new(&signed).answer_select(&q_probe).unwrap();
    withheld.retain(|r| r.get(0).as_int() != Some(103));
    let verdict = verify_select(&cert, &q_probe, &withheld, &wvo);
    println!(
        "compromised proxy withholds day 103 → {:?}",
        verdict.unwrap_err()
    );
}
