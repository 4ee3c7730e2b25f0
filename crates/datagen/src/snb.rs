//! LDBC SNB-like social network generator (DESIGN.md substitution for
//! SF300/SF1000).
//!
//! Generates the full SNB schema — Persons with `knows`, Places
//! (City→Country→Continent), Organisations (University/Company), Tags with
//! a TagClass hierarchy, Forums with memberships, Posts, Comments with
//! reply trees, and `likes` — carrying every property the 14 Interactive
//! Complex queries read. Degree and activity distributions are power-law;
//! everything is derived from one seed.

use rand::rngs::SmallRng;
use rand::Rng;

use graphdance_common::rng::{derive, PowerLaw};
use graphdance_common::time::date_millis;
use graphdance_common::{GdResult, Partitioner, Value, VertexId};
use graphdance_storage::{Graph, GraphBuilder, Schema};

use crate::DatasetSummary;

const FIRST_NAMES: &[&str] = &[
    "Jan", "Yang", "Chen", "Otto", "Aditi", "Bryn", "Carmen", "Deepak", "Emil", "Farah", "Gustav",
    "Hana", "Ivan", "Jun", "Karl", "Lin", "Mahinda", "Nadia", "Omar", "Priya", "Quentin", "Rahul",
    "Sofia", "Tariq", "Uma", "Viktor", "Wei", "Ximena", "Yusuf", "Zofia",
];
const LAST_NAMES: &[&str] = &[
    "Andersson",
    "Bauer",
    "Chen",
    "Dubois",
    "Eriksson",
    "Fischer",
    "Garcia",
    "Hoffmann",
    "Ivanov",
    "Johansson",
    "Kumar",
    "Li",
    "Martinez",
    "Nguyen",
    "Olsen",
    "Petrov",
    "Quist",
    "Rodriguez",
    "Sato",
    "Tanaka",
    "Ullman",
    "Virtanen",
    "Wang",
    "Xu",
    "Yamamoto",
    "Zhang",
];
const BROWSERS: &[&str] = &["Firefox", "Chrome", "Safari", "Opera", "InternetExplorer"];
const LANGUAGES: &[&str] = &["en", "zh", "de", "es", "ta"];
const CONTINENTS: &[&str] = &["Asia", "Europe", "Africa", "America", "Oceania"];
const COUNTRIES: &[(&str, usize)] = &[
    ("China", 0),
    ("India", 0),
    ("Japan", 0),
    ("Vietnam", 0),
    ("Germany", 1),
    ("France", 1),
    ("Spain", 1),
    ("Sweden", 1),
    ("Poland", 1),
    ("Egypt", 2),
    ("Nigeria", 2),
    ("Kenya", 2),
    ("Brazil", 3),
    ("Canada", 3),
    ("Peru", 3),
    ("Chile", 3),
    ("Australia", 4),
    ("NewZealand", 4),
    ("Fiji", 4),
    ("Samoa", 4),
];
const CITIES_PER_COUNTRY: usize = 4;
const TAG_CLASSES: &[(&str, Option<usize>)] = &[
    ("Thing", None),
    ("Person", Some(0)),
    ("Artist", Some(1)),
    ("Musician", Some(2)),
    ("Writer", Some(1)),
    ("Politician", Some(1)),
    ("Place", Some(0)),
    ("Country", Some(6)),
    ("City", Some(6)),
    ("Work", Some(0)),
    ("Song", Some(9)),
    ("Album", Some(9)),
    ("Film", Some(9)),
    ("Organisation", Some(0)),
    ("Band", Some(13)),
];

/// Vertex-id namespaces by entity type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Person = 1,
    City = 2,
    Country = 3,
    Continent = 4,
    University = 5,
    Company = 6,
    Tag = 7,
    TagClass = 8,
    Forum = 9,
    Post = 10,
    Comment = 11,
}

/// Compose a vertex id for an entity.
pub fn vid(kind: Kind, idx: usize) -> VertexId {
    VertexId(((kind as u64) << 40) | idx as u64)
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct SnbParams {
    /// Reported dataset name.
    pub name: String,
    /// Number of persons; all other entity counts derive from it.
    pub persons: usize,
    /// Average `knows` degree.
    pub avg_knows: f64,
    /// Posts per person (average).
    pub posts_per_person: f64,
    /// Comments per post (average).
    pub comments_per_post: f64,
    /// Average likes per message.
    pub likes_per_message: f64,
    /// Number of distinct tags.
    pub tags: usize,
    /// Master seed.
    pub seed: u64,
}

impl SnbParams {
    /// Tiny dataset for unit/integration tests.
    pub fn tiny() -> Self {
        SnbParams {
            name: "snb-tiny".into(),
            persons: 80,
            avg_knows: 6.0,
            posts_per_person: 3.0,
            comments_per_post: 1.0,
            likes_per_message: 1.0,
            tags: 40,
            seed: 0x51DB,
        }
    }

    /// Scaled-down stand-in for LDBC SNB SF300 (see DESIGN.md §1).
    pub fn sf300_sim() -> Self {
        SnbParams {
            name: "SF300-sim".into(),
            persons: 1800,
            avg_knows: 14.0,
            posts_per_person: 8.0,
            comments_per_post: 1.3,
            likes_per_message: 2.0,
            tags: 300,
            seed: 0x300,
        }
    }

    /// Scaled-down stand-in for LDBC SNB SF1000 (≈3.1× SF300's edges,
    /// matching the paper's ratio).
    pub fn sf1000_sim() -> Self {
        SnbParams {
            name: "SF1000-sim".into(),
            persons: 5600,
            avg_knows: 14.5,
            posts_per_person: 8.0,
            comments_per_post: 1.3,
            likes_per_message: 2.0,
            tags: 600,
            seed: 0x1000,
        }
    }
}

struct Person {
    first: &'static str,
    last: &'static str,
    gender: &'static str,
    birthday: i64,
    creation: i64,
    browser: &'static str,
    ip: String,
    city: usize,
    university: Option<(usize, i64)>,
    companies: Vec<(usize, i64)>,
    interests: Vec<usize>,
}

struct Forum {
    title: String,
    creation: i64,
    moderator: usize,
    members: Vec<(usize, i64)>,
}

struct Message {
    creator: usize,
    creation: i64,
    length: i64,
    browser: &'static str,
    ip: String,
    tags: Vec<usize>,
    country: usize,
}

struct Post {
    base: Message,
    forum: usize,
    language: &'static str,
}

struct Comment {
    base: Message,
    /// `Ok(post index)` or `Err(comment index)`.
    reply_of: Result<usize, usize>,
}

/// The generated social network.
pub struct SnbDataset {
    params: SnbParams,
    persons: Vec<Person>,
    knows: Vec<(usize, usize, i64)>,
    universities: Vec<(String, usize)>,
    companies: Vec<(String, usize)>,
    tags: Vec<(String, usize)>,
    forums: Vec<Forum>,
    posts: Vec<Post>,
    comments: Vec<Comment>,
    /// (person, message vid, date)
    likes: Vec<(usize, VertexId, i64)>,
}

fn rand_date(rng: &mut SmallRng, lo: i64, hi: i64) -> i64 {
    rng.gen_range(lo..hi)
}

fn rand_ip(rng: &mut SmallRng) -> String {
    format!(
        "{}.{}.{}.{}",
        rng.gen_range(1..255),
        rng.gen_range(0..255),
        rng.gen_range(0..255),
        rng.gen_range(1..255)
    )
}

impl SnbDataset {
    /// Generate deterministically.
    pub fn generate(params: SnbParams) -> SnbDataset {
        let n = params.persons;
        let mut rng = derive(params.seed, 100);
        let data_start = date_millis(2010, 1, 1);
        let data_end = date_millis(2013, 1, 1);
        let num_countries = COUNTRIES.len();
        let num_cities = num_countries * CITIES_PER_COUNTRY;

        let universities: Vec<(String, usize)> = (0..30)
            .map(|i| (format!("University_{i}"), rng.gen_range(0..num_cities)))
            .collect();
        let companies: Vec<(String, usize)> = (0..40)
            .map(|i| (format!("Company_{i}"), rng.gen_range(0..num_countries)))
            .collect();
        let tags: Vec<(String, usize)> = (0..params.tags)
            .map(|i| (format!("Tag_{i}"), rng.gen_range(0..TAG_CLASSES.len())))
            .collect();

        // ---- persons ----
        let tag_pop = PowerLaw::new(params.tags, 1.3);
        let persons: Vec<Person> = (0..n)
            .map(|_| {
                let creation = rand_date(&mut rng, data_start, data_end - 90 * 86_400_000);
                let mut interests: Vec<usize> = (0..rng.gen_range(3..=10))
                    .map(|_| tag_pop.sample(&mut rng))
                    .collect();
                interests.sort_unstable();
                interests.dedup();
                Person {
                    first: FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                    last: LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())],
                    gender: if rng.gen_bool(0.5) { "male" } else { "female" },
                    birthday: rand_date(
                        &mut rng,
                        date_millis(1950, 1, 1),
                        date_millis(1999, 12, 31),
                    ),
                    creation,
                    browser: BROWSERS[rng.gen_range(0..BROWSERS.len())],
                    ip: rand_ip(&mut rng),
                    city: rng.gen_range(0..num_cities),
                    university: rng.gen_bool(0.8).then(|| {
                        (
                            rng.gen_range(0..universities.len()),
                            rng.gen_range(2000..2013) as i64,
                        )
                    }),
                    companies: (0..rng.gen_range(0..=2))
                        .map(|_| {
                            (
                                rng.gen_range(0..companies.len()),
                                rng.gen_range(1990..2013) as i64,
                            )
                        })
                        .collect(),
                    interests,
                }
            })
            .collect();

        // ---- knows (undirected; stored once, traversed Both) ----
        let person_pop = PowerLaw::new(n, 1.4);
        let target_edges = (n as f64 * params.avg_knows / 2.0) as usize;
        let mut knows_set = graphdance_common::FxHashSet::default();
        let mut knows = Vec::with_capacity(target_edges);
        let mut attempts = 0;
        while knows.len() < target_edges && attempts < target_edges * 10 {
            attempts += 1;
            let a = person_pop.sample(&mut rng);
            let b = person_pop.sample(&mut rng);
            if a == b {
                continue;
            }
            let (a, b) = (a.min(b), a.max(b));
            if knows_set.insert((a, b)) {
                let date = persons[a].creation.max(persons[b].creation)
                    + rng.gen_range(0..30 * 86_400_000i64);
                knows.push((a, b, date.min(data_end - 1)));
            }
        }

        // ---- forums ----
        let num_forums = (n / 3).max(1);
        let mut member_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let forums: Vec<Forum> = (0..num_forums)
            .map(|i| {
                let moderator = rng.gen_range(0..n);
                let creation = rand_date(&mut rng, persons[moderator].creation, data_end - 1);
                let count = (PowerLaw::new(40, 1.2).sample(&mut rng) + 4).min(n);
                let mut candidates = vec![moderator];
                for _ in 0..count * 2 {
                    candidates.push(person_pop.sample(&mut rng));
                }
                let mut members = Vec::with_capacity(count + 1);
                let mut seen = graphdance_common::FxHashSet::default();
                for p in candidates {
                    if members.len() > count {
                        break;
                    }
                    if seen.insert(p) {
                        let join = rand_date(&mut rng, creation.max(persons[p].creation), data_end);
                        members.push((p, join));
                        member_of[p].push(i);
                    }
                }
                Forum {
                    title: format!("Forum_{i}"),
                    creation,
                    moderator,
                    members,
                }
            })
            .collect();

        // ---- posts ----
        let num_posts = (n as f64 * params.posts_per_person) as usize;
        let posts: Vec<Post> = (0..num_posts)
            .map(|_| {
                let creator = person_pop.sample(&mut rng);
                let forum = if member_of[creator].is_empty() {
                    rng.gen_range(0..num_forums)
                } else {
                    member_of[creator][rng.gen_range(0..member_of[creator].len())]
                };
                let lo = forums[forum].creation.max(persons[creator].creation);
                let creation = rand_date(&mut rng, lo, data_end);
                let home_country = persons[creator].city / CITIES_PER_COUNTRY;
                let country = if rng.gen_bool(0.8) {
                    home_country
                } else {
                    rng.gen_range(0..num_countries)
                };
                let mut tags_v: Vec<usize> = (0..rng.gen_range(1..=3))
                    .map(|_| tag_pop.sample(&mut rng))
                    .collect();
                tags_v.sort_unstable();
                tags_v.dedup();
                Post {
                    base: Message {
                        creator,
                        creation,
                        length: rng.gen_range(10..200),
                        browser: BROWSERS[rng.gen_range(0..BROWSERS.len())],
                        ip: rand_ip(&mut rng),
                        tags: tags_v,
                        country,
                    },
                    forum,
                    language: LANGUAGES[rng.gen_range(0..LANGUAGES.len())],
                }
            })
            .collect();

        // ---- comments ----
        let num_comments = (num_posts as f64 * params.comments_per_post) as usize;
        let mut comments: Vec<Comment> = Vec::with_capacity(num_comments);
        for _ in 0..num_comments {
            let creator = person_pop.sample(&mut rng);
            let reply_of = if comments.is_empty() || rng.gen_bool(0.7) {
                Ok(rng.gen_range(0..num_posts))
            } else {
                Err(rng.gen_range(0..comments.len()))
            };
            let parent_creation = match reply_of {
                Ok(p) => posts[p].base.creation,
                Err(c) => comments[c].base.creation,
            };
            let lo = parent_creation.max(persons[creator].creation);
            let creation = rand_date(&mut rng, lo, data_end.max(lo + 1));
            let home_country = persons[creator].city / CITIES_PER_COUNTRY;
            let country = if rng.gen_bool(0.8) {
                home_country
            } else {
                rng.gen_range(0..num_countries)
            };
            let mut tags_v: Vec<usize> = (0..rng.gen_range(0..=2))
                .map(|_| tag_pop.sample(&mut rng))
                .collect();
            tags_v.sort_unstable();
            tags_v.dedup();
            comments.push(Comment {
                base: Message {
                    creator,
                    creation,
                    length: rng.gen_range(5..150),
                    browser: BROWSERS[rng.gen_range(0..BROWSERS.len())],
                    ip: rand_ip(&mut rng),
                    tags: tags_v,
                    country,
                },
                reply_of,
            });
        }

        // ---- likes ----
        let like_pop = PowerLaw::new(20, 1.3);
        let mut likes = Vec::new();
        for (i, p) in posts.iter().enumerate() {
            let c = (like_pop.sample(&mut rng) as f64 * params.likes_per_message / 3.0) as usize;
            for _ in 0..c {
                let person = rng.gen_range(0..n);
                let date = rand_date(&mut rng, p.base.creation, data_end.max(p.base.creation + 1));
                likes.push((person, vid(Kind::Post, i), date));
            }
        }
        for (i, c) in comments.iter().enumerate() {
            let k = (like_pop.sample(&mut rng) as f64 * params.likes_per_message / 6.0) as usize;
            for _ in 0..k {
                let person = rng.gen_range(0..n);
                let date = rand_date(&mut rng, c.base.creation, data_end.max(c.base.creation + 1));
                likes.push((person, vid(Kind::Comment, i), date));
            }
        }

        SnbDataset {
            params,
            persons,
            knows,
            universities,
            companies,
            tags,
            forums,
            posts,
            comments,
            likes,
        }
    }

    /// Register the full SNB schema (labels and property keys).
    pub fn register_schema(schema: &mut Schema) {
        for l in [
            "Person",
            "City",
            "Country",
            "Continent",
            "University",
            "Company",
            "Tag",
            "TagClass",
            "Forum",
            "Post",
            "Comment",
        ] {
            schema.register_vertex_label(l);
        }
        for l in [
            "knows",
            "isLocatedIn",
            "isPartOf",
            "studyAt",
            "workAt",
            "hasInterest",
            "hasType",
            "isSubclassOf",
            "hasModerator",
            "hasMember",
            "containerOf",
            "hasCreator",
            "hasTag",
            "replyOf",
            "likes",
        ] {
            schema.register_edge_label(l);
        }
        for p in [
            "firstName",
            "lastName",
            "gender",
            "birthday",
            "creationDate",
            "browserUsed",
            "locationIP",
            "name",
            "title",
            "length",
            "language",
            "classYear",
            "workFrom",
            "joinDate",
        ] {
            schema.register_prop(p);
        }
    }

    /// Materialize for a cluster topology.
    pub fn build(&self, partitioner: Partitioner) -> GdResult<Graph> {
        let mut b = GraphBuilder::new(partitioner);
        Self::register_schema(b.schema_mut());
        let s = b.schema_mut().clone();
        let vl = |n: &str| s.vertex_label(n).expect("registered");
        let el = |n: &str| s.edge_label(n).expect("registered");
        let pk = |n: &str| s.prop(n).expect("registered");
        let num_countries = COUNTRIES.len();
        let num_cities = num_countries * CITIES_PER_COUNTRY;

        // Places.
        for (i, name) in CONTINENTS.iter().enumerate() {
            b.add_vertex(
                vid(Kind::Continent, i),
                vl("Continent"),
                vec![(pk("name"), Value::str(name))],
            )?;
        }
        for (i, (name, continent)) in COUNTRIES.iter().enumerate() {
            b.add_vertex(
                vid(Kind::Country, i),
                vl("Country"),
                vec![(pk("name"), Value::str(name))],
            )?;
            b.add_edge(
                vid(Kind::Country, i),
                el("isPartOf"),
                vid(Kind::Continent, *continent),
                vec![],
            )?;
        }
        for c in 0..num_cities {
            let country = c / CITIES_PER_COUNTRY;
            b.add_vertex(
                vid(Kind::City, c),
                vl("City"),
                vec![(
                    pk("name"),
                    Value::str(format!(
                        "City_{}_{}",
                        COUNTRIES[country].0,
                        c % CITIES_PER_COUNTRY
                    )),
                )],
            )?;
            b.add_edge(
                vid(Kind::City, c),
                el("isPartOf"),
                vid(Kind::Country, country),
                vec![],
            )?;
        }
        // Organisations.
        for (i, (name, city)) in self.universities.iter().enumerate() {
            b.add_vertex(
                vid(Kind::University, i),
                vl("University"),
                vec![(pk("name"), Value::str(name))],
            )?;
            b.add_edge(
                vid(Kind::University, i),
                el("isLocatedIn"),
                vid(Kind::City, *city),
                vec![],
            )?;
        }
        for (i, (name, country)) in self.companies.iter().enumerate() {
            b.add_vertex(
                vid(Kind::Company, i),
                vl("Company"),
                vec![(pk("name"), Value::str(name))],
            )?;
            b.add_edge(
                vid(Kind::Company, i),
                el("isLocatedIn"),
                vid(Kind::Country, *country),
                vec![],
            )?;
        }
        // Tag classes and tags.
        for (i, (name, parent)) in TAG_CLASSES.iter().enumerate() {
            b.add_vertex(
                vid(Kind::TagClass, i),
                vl("TagClass"),
                vec![(pk("name"), Value::str(name))],
            )?;
            if let Some(p) = parent {
                b.add_edge(
                    vid(Kind::TagClass, i),
                    el("isSubclassOf"),
                    vid(Kind::TagClass, *p),
                    vec![],
                )?;
            }
        }
        for (i, (name, class)) in self.tags.iter().enumerate() {
            b.add_vertex(
                vid(Kind::Tag, i),
                vl("Tag"),
                vec![(pk("name"), Value::str(name))],
            )?;
            b.add_edge(
                vid(Kind::Tag, i),
                el("hasType"),
                vid(Kind::TagClass, *class),
                vec![],
            )?;
        }
        // Persons.
        for (i, p) in self.persons.iter().enumerate() {
            b.add_vertex(
                vid(Kind::Person, i),
                vl("Person"),
                vec![
                    (pk("firstName"), Value::str(p.first)),
                    (pk("lastName"), Value::str(p.last)),
                    (pk("gender"), Value::str(p.gender)),
                    (pk("birthday"), Value::Int(p.birthday)),
                    (pk("creationDate"), Value::Int(p.creation)),
                    (pk("browserUsed"), Value::str(p.browser)),
                    (pk("locationIP"), Value::str(&p.ip)),
                ],
            )?;
            b.add_edge(
                vid(Kind::Person, i),
                el("isLocatedIn"),
                vid(Kind::City, p.city),
                vec![],
            )?;
            if let Some((u, year)) = p.university {
                b.add_edge(
                    vid(Kind::Person, i),
                    el("studyAt"),
                    vid(Kind::University, u),
                    vec![(pk("classYear"), Value::Int(year))],
                )?;
            }
            for (c, from) in &p.companies {
                b.add_edge(
                    vid(Kind::Person, i),
                    el("workAt"),
                    vid(Kind::Company, *c),
                    vec![(pk("workFrom"), Value::Int(*from))],
                )?;
            }
            for t in &p.interests {
                b.add_edge(
                    vid(Kind::Person, i),
                    el("hasInterest"),
                    vid(Kind::Tag, *t),
                    vec![],
                )?;
            }
        }
        for (a, bb, date) in &self.knows {
            b.add_edge(
                vid(Kind::Person, *a),
                el("knows"),
                vid(Kind::Person, *bb),
                vec![(pk("creationDate"), Value::Int(*date))],
            )?;
        }
        // Forums.
        for (i, f) in self.forums.iter().enumerate() {
            b.add_vertex(
                vid(Kind::Forum, i),
                vl("Forum"),
                vec![
                    (pk("title"), Value::str(&f.title)),
                    (pk("creationDate"), Value::Int(f.creation)),
                ],
            )?;
            b.add_edge(
                vid(Kind::Forum, i),
                el("hasModerator"),
                vid(Kind::Person, f.moderator),
                vec![],
            )?;
            for (m, join) in &f.members {
                b.add_edge(
                    vid(Kind::Forum, i),
                    el("hasMember"),
                    vid(Kind::Person, *m),
                    vec![(pk("joinDate"), Value::Int(*join))],
                )?;
            }
        }
        // Posts.
        for (i, p) in self.posts.iter().enumerate() {
            b.add_vertex(
                vid(Kind::Post, i),
                vl("Post"),
                vec![
                    (pk("creationDate"), Value::Int(p.base.creation)),
                    (pk("length"), Value::Int(p.base.length)),
                    (pk("browserUsed"), Value::str(p.base.browser)),
                    (pk("locationIP"), Value::str(&p.base.ip)),
                    (pk("language"), Value::str(p.language)),
                ],
            )?;
            b.add_edge(
                vid(Kind::Post, i),
                el("hasCreator"),
                vid(Kind::Person, p.base.creator),
                vec![],
            )?;
            b.add_edge(
                vid(Kind::Forum, p.forum),
                el("containerOf"),
                vid(Kind::Post, i),
                vec![],
            )?;
            b.add_edge(
                vid(Kind::Post, i),
                el("isLocatedIn"),
                vid(Kind::Country, p.base.country),
                vec![],
            )?;
            for t in &p.base.tags {
                b.add_edge(vid(Kind::Post, i), el("hasTag"), vid(Kind::Tag, *t), vec![])?;
            }
        }
        // Comments.
        for (i, c) in self.comments.iter().enumerate() {
            b.add_vertex(
                vid(Kind::Comment, i),
                vl("Comment"),
                vec![
                    (pk("creationDate"), Value::Int(c.base.creation)),
                    (pk("length"), Value::Int(c.base.length)),
                    (pk("browserUsed"), Value::str(c.base.browser)),
                    (pk("locationIP"), Value::str(&c.base.ip)),
                ],
            )?;
            b.add_edge(
                vid(Kind::Comment, i),
                el("hasCreator"),
                vid(Kind::Person, c.base.creator),
                vec![],
            )?;
            let parent = match c.reply_of {
                Ok(p) => vid(Kind::Post, p),
                Err(cc) => vid(Kind::Comment, cc),
            };
            b.add_edge(vid(Kind::Comment, i), el("replyOf"), parent, vec![])?;
            b.add_edge(
                vid(Kind::Comment, i),
                el("isLocatedIn"),
                vid(Kind::Country, c.base.country),
                vec![],
            )?;
            for t in &c.base.tags {
                b.add_edge(
                    vid(Kind::Comment, i),
                    el("hasTag"),
                    vid(Kind::Tag, *t),
                    vec![],
                )?;
            }
        }
        // Likes.
        for (p, msg, date) in &self.likes {
            b.add_edge(
                vid(Kind::Person, *p),
                el("likes"),
                *msg,
                vec![(pk("creationDate"), Value::Int(*date))],
            )?;
        }
        // Indexes the IC queries rely on.
        b.build_prop_index(
            s.vertex_label("Person").expect("registered"),
            pk("firstName"),
        );
        b.build_prop_index(s.vertex_label("Tag").expect("registered"), pk("name"));
        b.build_prop_index(s.vertex_label("Country").expect("registered"), pk("name"));
        b.build_prop_index(s.vertex_label("TagClass").expect("registered"), pk("name"));
        Ok(b.finish())
    }

    // ---- accessors for the workload driver ----

    /// Generation parameters.
    pub fn params(&self) -> &SnbParams {
        &self.params
    }

    /// Number of persons.
    pub fn num_persons(&self) -> usize {
        self.persons.len()
    }

    /// Vertex id of person `i`.
    pub fn person(&self, i: usize) -> VertexId {
        vid(Kind::Person, i)
    }

    /// A person's first name (for IC1 parameters).
    pub fn person_first_name(&self, i: usize) -> &str {
        self.persons[i].first
    }

    /// All country names.
    pub fn country_names(&self) -> Vec<&'static str> {
        COUNTRIES.iter().map(|(n, _)| *n).collect()
    }

    /// A tag name.
    pub fn tag_name(&self, i: usize) -> &str {
        &self.tags[i].0
    }

    /// Number of tags.
    pub fn num_tags(&self) -> usize {
        self.tags.len()
    }

    /// Tag-class names (roots of the IC12 hierarchy walk).
    pub fn tag_class_names(&self) -> Vec<&'static str> {
        TAG_CLASSES.iter().map(|(n, _)| *n).collect()
    }

    /// Highest assigned indexes (for update-stream id allocation).
    pub fn next_ids(&self) -> (usize, usize, usize) {
        (self.persons.len(), self.posts.len(), self.comments.len())
    }

    /// Table II-style summary (vertex/edge counts from the generated data).
    pub fn summary(&self) -> DatasetSummary {
        let num_cities = COUNTRIES.len() * CITIES_PER_COUNTRY;
        let vertices = (self.persons.len()
            + num_cities
            + COUNTRIES.len()
            + CONTINENTS.len()
            + self.universities.len()
            + self.companies.len()
            + self.tags.len()
            + TAG_CLASSES.len()
            + self.forums.len()
            + self.posts.len()
            + self.comments.len()) as u64;
        let edges = (self.knows.len()
            + self.persons.len() // isLocatedIn
            + self.persons.iter().map(|p| usize::from(p.university.is_some()) + p.companies.len() + p.interests.len()).sum::<usize>()
            + num_cities
            + COUNTRIES.len()
            + self.universities.len()
            + self.companies.len()
            + self.tags.len()
            + TAG_CLASSES.iter().filter(|(_, p)| p.is_some()).count()
            + self.forums.len() // moderator
            + self.forums.iter().map(|f| f.members.len()).sum::<usize>()
            + self.posts.len() * 3
            + self.posts.iter().map(|p| p.base.tags.len()).sum::<usize>()
            + self.comments.len() * 3
            + self.comments.iter().map(|c| c.base.tags.len()).sum::<usize>()
            + self.likes.len()) as u64;
        DatasetSummary {
            name: self.params.name.clone(),
            vertices,
            edges,
            raw_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_storage::Direction;

    fn tiny() -> SnbDataset {
        SnbDataset::generate(SnbParams::tiny())
    }

    #[test]
    fn deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.knows, b.knows);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn builds_and_counts_match_summary() {
        let d = tiny();
        let g = d.build(Partitioner::new(2, 2)).unwrap();
        let s = d.summary();
        assert_eq!(g.total_vertices(), s.vertices);
        assert_eq!(g.total_edges(), s.edges);
    }

    #[test]
    fn schema_complete_for_queries() {
        let d = tiny();
        let g = d.build(Partitioner::single()).unwrap();
        let s = g.schema();
        for l in [
            "Person", "Post", "Comment", "Forum", "Tag", "TagClass", "Country",
        ] {
            assert!(s.vertex_label(l).is_ok(), "{l}");
        }
        for l in [
            "knows",
            "hasCreator",
            "replyOf",
            "likes",
            "hasMember",
            "containerOf",
        ] {
            assert!(s.edge_label(l).is_ok(), "{l}");
        }
    }

    #[test]
    fn knows_traversable_both_ways() {
        let d = tiny();
        let g = d.build(Partitioner::new(1, 2)).unwrap();
        let knows = g.schema().edge_label("knows").unwrap();
        let (a, b_, _) = d.knows[0];
        let friends = g
            .neighbors(vid(Kind::Person, a), Direction::Both, knows, 1)
            .unwrap();
        assert!(friends.contains(&vid(Kind::Person, b_)));
        let friends_rev = g
            .neighbors(vid(Kind::Person, b_), Direction::Both, knows, 1)
            .unwrap();
        assert!(friends_rev.contains(&vid(Kind::Person, a)));
    }

    #[test]
    fn posts_have_creator_and_forum() {
        let d = tiny();
        let g = d.build(Partitioner::single()).unwrap();
        let creator = g.schema().edge_label("hasCreator").unwrap();
        let container = g.schema().edge_label("containerOf").unwrap();
        let p0 = vid(Kind::Post, 0);
        assert_eq!(
            g.neighbors(p0, Direction::Out, creator, 1).unwrap().len(),
            1
        );
        assert_eq!(
            g.neighbors(p0, Direction::In, container, 1).unwrap().len(),
            1
        );
    }

    #[test]
    fn comment_dates_after_parents() {
        let d = tiny();
        for c in &d.comments {
            let parent = match c.reply_of {
                Ok(p) => d.posts[p].base.creation,
                Err(cc) => d.comments[cc].base.creation,
            };
            assert!(c.base.creation >= parent);
        }
    }

    #[test]
    fn index_lookup_ready() {
        let d = tiny();
        let g = d.build(Partitioner::new(1, 2)).unwrap();
        let person = g.schema().vertex_label("Person").unwrap();
        let first = g.schema().prop("firstName").unwrap();
        let name = d.person_first_name(0);
        let mut found = Vec::new();
        for p in g.partitioner().parts() {
            found.extend(
                g.read(p)
                    .index_lookup(person, first, &Value::str(name), 1)
                    .unwrap(),
            );
        }
        assert!(found.contains(&d.person(0)));
    }

    #[test]
    fn scale_factors_preserve_ratio() {
        // We don't generate the full SF datasets in tests (slow); just
        // check the parameter ratio matches the paper's edge ratio ≈ 3.1.
        let a = SnbParams::sf300_sim();
        let b = SnbParams::sf1000_sim();
        let ratio = b.persons as f64 / a.persons as f64;
        assert!(ratio > 2.8 && ratio < 3.4, "ratio {ratio}");
    }

    #[test]
    fn vertex_id_namespaces_disjoint() {
        assert_ne!(vid(Kind::Person, 0), vid(Kind::Post, 0));
        assert_ne!(vid(Kind::Post, 5), vid(Kind::Comment, 5));
    }
}
